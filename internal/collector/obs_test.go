package collector

import (
	"testing"
	"time"

	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// TestBreakerTransitionMetrics drives a breaker through its full
// lifecycle — closed → open → half-open → (failed probe) open →
// half-open → closed — and asserts every transition is visible in the
// counters and the trace ring, in order.
func TestBreakerTransitionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	col := New(Config{PollTimeout: time.Millisecond, BreakerThreshold: 3, Obs: m})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	end := link.NodeEnd()

	end.Send(transport.Packet{Kind: transport.KindReport, Node: 5, Seq: 0, Value: 40})
	if err := col.Attach(5, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	state := func() NodeView {
		v, ok := col.Node(5)
		if !ok {
			t.Fatal("node 5 not attached")
		}
		return v
	}
	waitFor(t, 5*time.Second, "first report", func() bool { return state().Have })

	// Silence trips the breaker: closed → open, once. Transitions are
	// awaited on the monotonic counters, not by sampling the breaker
	// state — at PollTimeout granularity the open window lasts only a
	// few milliseconds and a descheduled poller can miss it entirely.
	waitFor(t, 5*time.Second, "breaker open", func() bool { return m.Opened.Value() == 1 })
	if m.Timeouts.Value() == 0 {
		t.Fatal("breaker tripped with no timeout counted")
	}

	// Cooldown half-opens it; a failed (unhealthy) probe re-opens.
	waitFor(t, 5*time.Second, "half-open", func() bool { return m.HalfOpened.Value() == 1 })
	end.Send(transport.Packet{
		Kind: transport.KindReport, Node: 5, Seq: 1, Value: 41,
		Flags: transport.FlagUnhealthy,
	})
	waitFor(t, 5*time.Second, "re-open after bad probe", func() bool { return m.Reopened.Value() == 1 })
	if m.BreakerDrops.Value() == 0 {
		t.Fatal("failed probe was not counted as a breaker drop")
	}

	// Second cooldown; a healthy probe closes the breaker.
	waitFor(t, 5*time.Second, "half-open again", func() bool { return m.HalfOpened.Value() == 2 })
	end.Send(transport.Packet{Kind: transport.KindReport, Node: 5, Seq: 1, Value: 50})
	waitFor(t, 5*time.Second, "closed after probe", func() bool { return state().Breaker == BreakerClosed })
	if got := m.Closed.Value(); got != 1 {
		t.Fatalf("closed = %d, want 1", got)
	}
	if got := m.Opened.Value(); got != 1 {
		t.Fatalf("opened grew to %d after recovery, want 1", got)
	}

	// The trace ring replays the exact transition sequence for node 5.
	want := [][2]BreakerState{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	var got [][2]BreakerState
	for _, ev := range m.Trace.Events() {
		if ev.Kind == EvBreaker && ev.Node == 5 {
			got = append(got, [2]BreakerState{BreakerState(ev.A), BreakerState(ev.B)})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("trace has %d breaker transitions %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %v→%v, want %v→%v", i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
}
