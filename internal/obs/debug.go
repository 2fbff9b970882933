package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeDebug serves r for live inspection on addr: expvar on
// /debug/vars (r published as "ulpdp"), Prometheus text exposition on
// /metrics, and net/http/pprof under /debug/pprof/. It listens before
// it returns, so a bad address fails the caller at startup; the server
// then runs for the rest of the process. The returned address is the
// bound one (useful with port 0).
func ServeDebug(addr string, r *Registry) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	r.PublishExpvar("ulpdp")
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		// A failed write means the scraper went away; there is no one
		// left to report it to.
		_ = WritePrometheus(w, r.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Serve returns only if the listener fails; the process then runs
	// on without its debug surface.
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr(), nil
}
