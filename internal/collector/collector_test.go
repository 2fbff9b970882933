package collector

import (
	"context"
	"sync"
	"testing"
	"time"

	"ulpdp/internal/dpbox"
	"ulpdp/internal/fault"
	"ulpdp/internal/node"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// newFleetBox builds a journaled DP-Box for one simulated node.
func newFleetBox(t *testing.T, seed uint64, budget float64) *dpbox.DPBox {
	t.Helper()
	box, err := dpbox.New(dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(seed),
		Journal:     dpbox.NewJournal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Initialize(budget, 0); err != nil {
		t.Fatal(err)
	}
	if err := box.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	return box
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentFleetIngest is the ISSUE's concurrency gate: 64 nodes
// reporting concurrently through real agents, under -race, with
// exactly-once accounting at the end.
func TestConcurrentFleetIngest(t *testing.T) {
	const (
		nodes   = 64
		reports = 5
	)
	col := New(Config{
		// The breaker is not under test here; a tight threshold plus
		// race-detector scheduling jitter would only add noise.
		BreakerThreshold: 1 << 20,
	})
	defer col.Close()

	boxes := make([]*dpbox.DPBox, nodes)
	links := make([]*transport.Link, nodes)
	for i := 0; i < nodes; i++ {
		boxes[i] = newFleetBox(t, uint64(i)+1, 1e6)
		links[i] = transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(transport.NodeID(i), links[i].CollectorEnd()); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agent := node.NewReportAgent(boxes[i], links[i].NodeEnd(), node.AgentConfig{
				ID: transport.NodeID(i), MaxAttempts: 64,
			})
			for r := 0; r < reports; r++ {
				if _, err := agent.Report(ctx, int64(r%16)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	agg := col.Aggregate()
	if agg.Nodes != nodes || agg.Reports != nodes*reports {
		t.Fatalf("aggregate %+v, want %d nodes x %d reports", agg, nodes, reports)
	}
	// Exactly-once accounting: the collector's recorded values are
	// precisely each node's journaled releases.
	for i := 0; i < nodes; i++ {
		got := col.Values(transport.NodeID(i))
		if n := boxes[i].NextSeq(); uint64(len(got)) != n {
			t.Fatalf("node %d: %d recorded vs %d journaled", i, len(got), n)
		}
		for seq, v := range got {
			if rel, ok := boxes[i].ReleaseFor(seq); !ok || rel.Value != v {
				t.Fatalf("node %d seq %d: recorded %d, journal %+v (held %v)", i, seq, v, rel, ok)
			}
		}
	}
}

// TestDuplicateReorderScheduleProperty is the ISSUE's property test:
// any schedule of duplicated and reordered deliveries of the same
// (node, seq) reports changes neither the node's journal spend nor
// the collector aggregate.
func TestDuplicateReorderScheduleProperty(t *testing.T) {
	const nReports = 6
	box := newFleetBox(t, 11, 1e6)
	var pkts []transport.Packet
	for seq := uint64(0); seq < nReports; seq++ {
		res, err := box.NoiseValueSeq(seq, int64(seq%5))
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, transport.Packet{
			Kind: transport.KindReport, Node: 1, Seq: seq, Value: res.Value,
		})
	}
	spend := 1e6 - box.BudgetRemaining()

	run := func(schedule []int) Aggregate {
		col := New(Config{BreakerThreshold: 1 << 20})
		defer col.Close()
		link := transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(1, link.CollectorEnd()); err != nil {
			t.Fatal(err)
		}
		end := link.NodeEnd()
		for _, i := range schedule {
			// Each redelivery is also a node-side retry: the box must
			// replay, not redraw.
			res, err := box.NoiseValueSeq(pkts[i].Seq, int64(pkts[i].Seq%5))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Replayed || res.Value != pkts[i].Value {
				t.Fatalf("retry of seq %d redrew: %+v", pkts[i].Seq, res)
			}
			end.Send(pkts[i])
		}
		waitFor(t, 5*time.Second, "all reports recorded", func() bool {
			return col.Aggregate().Reports == nReports
		})
		return col.Aggregate()
	}

	baseline := run([]int{0, 1, 2, 3, 4, 5})

	// Deterministic pseudo-random schedules: shuffles with 2-3x
	// duplication of every report.
	rng := uint64(0xDEC0DE)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}
	for trial := 0; trial < 8; trial++ {
		var schedule []int
		for i := 0; i < nReports; i++ {
			for c := 2 + int(next()%2); c > 0; c-- {
				schedule = append(schedule, i)
			}
		}
		for i := len(schedule) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			schedule[i], schedule[j] = schedule[j], schedule[i]
		}
		agg := run(schedule)
		if agg != baseline {
			t.Fatalf("trial %d: aggregate %+v != baseline %+v (schedule %v)", trial, agg, baseline, schedule)
		}
	}
	if nowSpend := 1e6 - box.BudgetRemaining(); nowSpend != spend {
		t.Fatalf("redelivery schedules changed journal spend: %g -> %g nats", spend, nowSpend)
	}
}

func TestBreakerTripsHalfOpensRecovers(t *testing.T) {
	col := New(Config{PollTimeout: time.Millisecond, BreakerThreshold: 3})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	end := link.NodeEnd()

	// Queue a healthy report BEFORE attaching: the first poll returns
	// it immediately, so no timeout can race ahead of it.
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
	if v := state(); v.Degraded || v.Value != 40 {
		t.Fatalf("healthy view %+v", v)
	}

	// Sustained silence trips the breaker (consecutive receive
	// timeouts), after which queries serve the last-ACKed cache,
	// marked degraded.
	waitFor(t, 5*time.Second, "breaker open", func() bool { return state().Breaker == BreakerOpen })
	v := state()
	if !v.Degraded || v.Value != 40 || v.Seq != 0 || v.Reports != 1 {
		t.Fatalf("open view should serve cached seq 0 value 40: %+v", v)
	}

	// More silence half-opens it; an unhealthy probe slams it shut
	// again without being recorded.
	waitFor(t, 5*time.Second, "half-open", func() bool { return state().Breaker == BreakerHalfOpen })
	end.Send(transport.Packet{
		Kind: transport.KindReport, Node: 5, Seq: 1, Value: 41,
		Flags: transport.FlagUnhealthy,
	})
	waitFor(t, 5*time.Second, "re-open after bad probe", func() bool { return state().Breaker == BreakerOpen })
	if v := state(); v.Reports != 1 {
		t.Fatalf("failed probe was recorded: %+v", v)
	}

	// Half-open again; a healthy probe closes the breaker and is
	// recorded normally.
	waitFor(t, 5*time.Second, "half-open again", func() bool { return state().Breaker == BreakerHalfOpen })
	end.Send(transport.Packet{Kind: transport.KindReport, Node: 5, Seq: 1, Value: 50})
	waitFor(t, 5*time.Second, "closed after probe", func() bool { return state().Breaker == BreakerClosed })
	v = state()
	if v.Degraded || v.Value != 50 || v.Reports != 2 {
		t.Fatalf("recovered view %+v", v)
	}
}

// TestStalledShardLosesNoReport stalls every shard (holding the shard
// locks, so no reactor can pull a frame) while nodes retransmit into
// one-slot links. The links overflow — backpressure is frame loss on
// the link — and once the stall lifts, the retry loops still get every
// report recorded.
func TestStalledShardLosesNoReport(t *testing.T) {
	const (
		nodes   = 4
		reports = 8
	)
	col := New(Config{BreakerThreshold: 1 << 20})
	defer col.Close()

	links := make([]*transport.Link, nodes)
	for i := range links {
		links[i] = transport.NewLink(transport.LinkConfig{QueueCap: 1})
		if err := col.Attach(transport.NodeID(i), links[i].CollectorEnd()); err != nil {
			t.Fatal(err)
		}
	}
	overflow := func() uint64 {
		var n uint64
		for _, l := range links {
			n += l.Stats().Overflow
		}
		return n
	}
	for _, sh := range col.shards {
		sh.mu.Lock()
	}
	stalled := true
	unstall := func() {
		if stalled {
			stalled = false
			for _, sh := range col.shards {
				sh.mu.Unlock()
			}
		}
	}
	defer unstall()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		box := newFleetBox(t, uint64(100+i), 1e6)
		wg.Add(1)
		go func(i int, box *dpbox.DPBox, link *transport.Link) {
			defer wg.Done()
			agent := node.NewReportAgent(box, link.NodeEnd(), node.AgentConfig{
				ID: transport.NodeID(i), MaxAttempts: 256,
			})
			for r := 0; r < reports; r++ {
				if _, err := agent.Report(ctx, int64(r)); err != nil {
					errs <- err
					return
				}
			}
		}(i, box, links[i])
	}
	// Each link's slot holds the first report; its retransmission
	// must overflow (waitFor fails the test if none does).
	waitFor(t, 30*time.Second, "a retransmission to overflow a stalled link", func() bool { return overflow() > 0 })
	unstall()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if agg := col.Aggregate(); agg.Reports != nodes*reports {
		t.Fatalf("reports lost behind the stalled shard: %+v", agg)
	}
}

func TestExhaustedBudgetServedFromCache(t *testing.T) {
	col := New(Config{BreakerThreshold: 1 << 20})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(2, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	end := link.NodeEnd()

	end.Send(transport.Packet{Kind: transport.KindReport, Node: 2, Seq: 0, Value: 7})
	waitFor(t, 5*time.Second, "fresh report", func() bool {
		v, _ := col.Node(2)
		return v.Have
	})
	if v, _ := col.Node(2); v.Degraded {
		t.Fatalf("fresh report marked degraded: %+v", v)
	}

	// The node announces budget exhaustion: its values now replay the
	// DP-Box cache, and the collector marks the feed degraded while
	// continuing to serve the last-ACKed value.
	end.Send(transport.Packet{
		Kind: transport.KindReport, Node: 2, Seq: 1, Value: 7,
		Flags: transport.FlagFromCache,
	})
	waitFor(t, 5*time.Second, "exhausted report", func() bool {
		v, _ := col.Node(2)
		return v.Seq == 1
	})
	v, _ := col.Node(2)
	if !v.Degraded || v.Value != 7 {
		t.Fatalf("exhausted view %+v", v)
	}
	if agg := col.Aggregate(); agg.Degraded != 1 {
		t.Fatalf("aggregate degraded count: %+v", agg)
	}
}

// TestIdleTickFlushesAnnouncedHoldback holds a report back on a link
// and checks the holdback is flushed by the first idle tick at which
// the link is silent, not earlier: the link announced the holdback,
// and a tick in which the node was heard leaves it held.
func TestIdleTickFlushesAnnouncedHoldback(t *testing.T) {
	col := New(Config{Shards: 1, PollTimeout: time.Hour})
	// Stop the reactor: the test drains and ticks the shard itself.
	col.Close()
	sh := col.shards[0]
	fp := fault.NewPlane()
	fp.SetPacketFault(func(n uint64, dir uint8, payload []byte) fault.PacketFate {
		if dir == fault.DirUp && n == 0 {
			return fault.PacketFate{Delay: 5}
		}
		return fault.PacketFate{}
	})
	link := transport.NewLink(transport.LinkConfig{Plane: fp})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	end := link.NodeEnd()
	report := func(seq uint64) {
		end.Send(transport.Packet{Kind: transport.KindReport, Node: 1, Seq: seq, Value: int64(seq)})
	}
	drained := func() uint64 {
		for sh.drain() {
		}
		return col.Stats().Accepted
	}

	report(0) // held back
	if got := drained(); got != 0 || len(sh.holding) != 1 {
		t.Fatalf("held report: %d accepted, %d links listed; want 0 and 1", got, len(sh.holding))
	}
	report(1) // overtakes it, so the node is heard before the next tick
	if got := drained(); got != 1 {
		t.Fatalf("%d accepted, want 1", got)
	}
	col.tickAll()
	if got := drained(); got != 1 || link.CollectorEnd().Pending() != 1 {
		t.Fatalf("tick after a report: %d accepted, %d pending; want the holdback kept", got, link.CollectorEnd().Pending())
	}
	col.tickAll()
	if got := drained(); got != 2 || len(sh.holding) != 0 {
		t.Fatalf("silent tick: %d accepted, %d links listed; want the holdback flushed", got, len(sh.holding))
	}
	if v := col.Values(1); v[0] != 0 || len(v) != 2 {
		t.Fatalf("values %v", v)
	}
}
