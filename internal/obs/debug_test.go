package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug.probe").Add(7)
	addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/vars", "/metrics", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "debug_probe 7\n") {
			t.Fatalf("/metrics lacks the registered counter:\n%s", body)
		}
	}

	if _, err := ServeDebug("127.0.0.1:-1", r); err == nil {
		t.Fatal("ServeDebug accepted an invalid port")
	}
}
