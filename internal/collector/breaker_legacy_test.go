package collector

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ulpdp/internal/nvm"
	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// legacyNode is one node's breaker as the per-node idle-tick walk
// kept it, before silence was settled lazily.
type legacyNode struct {
	attached   bool
	breaker    BreakerState
	consecFail int
	openLeft   int
	sawReport  bool // any frame since the last idle tick
}

// legacyBreakers is the frozen reference: the breaker half of
// handleLocked and the O(nodes) idleTick walk as they stood before
// the lazy breaker clock, over every node of a collector.
type legacyBreakers struct {
	threshold int
	nodes     map[transport.NodeID]*legacyNode
	snap      map[transport.NodeID]legacyNode // breaker state of the last durable snapshot
	timeouts  uint64
	arcs      [][3]int64 // (node, from, to) since the last take
}

func (l *legacyBreakers) node(id transport.NodeID) *legacyNode {
	n := l.nodes[id]
	if n == nil {
		n = &legacyNode{}
		l.nodes[id] = n
	}
	return n
}

func (l *legacyBreakers) transition(id transport.NodeID, from, to BreakerState) {
	l.arcs = append(l.arcs, [3]int64{int64(id), int64(from), int64(to)})
}

// handle runs one report through the legacy breaker; dead is the
// shard's fail-closed latch at entry, which bypasses the breaker.
func (l *legacyBreakers) handle(id transport.NodeID, unhealthy, dead bool) {
	if dead {
		return
	}
	ns := l.node(id)
	ns.sawReport = true
	switch ns.breaker {
	case BreakerOpen:
	case BreakerHalfOpen:
		if unhealthy {
			ns.breaker = BreakerOpen
			ns.openLeft = openTicks
			l.transition(id, BreakerHalfOpen, BreakerOpen)
			return
		}
		ns.breaker = BreakerClosed
		ns.consecFail = 0
		l.transition(id, BreakerHalfOpen, BreakerClosed)
	case BreakerClosed:
		if unhealthy {
			ns.consecFail++
			if ns.consecFail >= l.threshold {
				ns.breaker = BreakerOpen
				ns.openLeft = openTicks
				l.transition(id, BreakerClosed, BreakerOpen)
			}
		} else {
			ns.consecFail = 0
		}
	}
}

// idleTickLegacy is the old idleTick: walk every node, feed each
// attached node that delivered nothing since the last tick one silent
// tick (the walk also flushed that node's link holdbacks).
func (l *legacyBreakers) idleTickLegacy() {
	for id, ns := range l.nodes {
		if !ns.attached {
			continue
		}
		if ns.sawReport {
			ns.sawReport = false
			continue
		}
		l.timeouts++
		switch ns.breaker {
		case BreakerClosed:
			ns.consecFail++
			if ns.consecFail >= l.threshold {
				ns.breaker = BreakerOpen
				ns.openLeft = openTicks
				l.transition(id, BreakerClosed, BreakerOpen)
			}
		case BreakerOpen:
			ns.openLeft--
			if ns.openLeft <= 0 {
				ns.breaker = BreakerHalfOpen
				l.transition(id, BreakerOpen, BreakerHalfOpen)
			}
		case BreakerHalfOpen:
		}
	}
}

// snapshot records the breaker state a compaction of the nodes that
// own passes made durable.
func (l *legacyBreakers) snapshot(owns func(transport.NodeID) bool) {
	for id, ns := range l.nodes {
		if owns(id) {
			l.snap[id] = legacyNode{breaker: ns.breaker, consecFail: ns.consecFail, openLeft: ns.openLeft}
		}
	}
}

// recover restarts from the last snapshot: every node detached, with
// its snapshotted breaker (or a fresh one), and the stats reset.
func (l *legacyBreakers) recover() {
	l.nodes = make(map[transport.NodeID]*legacyNode, len(l.snap))
	for id, sn := range l.snap {
		sn := sn
		l.nodes[id] = &sn
	}
	l.timeouts = 0
}

// takeArcs returns the arcs since the last take, sorted.
func (l *legacyBreakers) takeArcs() [][3]int64 {
	out := l.arcs
	l.arcs = nil
	sortArcs(out)
	return out
}

func sortArcs(a [][3]int64) {
	sort.Slice(a, func(i, j int) bool {
		for k := 0; k < 3; k++ {
			if a[i][k] != a[j][k] {
				return a[i][k] < a[j][k]
			}
		}
		return false
	})
}

// settledBreaker returns a node's breaker with its pending silence
// applied, without touching the node.
func settledBreaker(sh *shard, ns *nodeState) (BreakerState, int, int) {
	v := &nodeState{breaker: ns.breaker, consecFail: ns.consecFail, openLeft: ns.openLeft}
	if ns.end != nil && ns.quietFrom <= sh.tick {
		for k := sh.tick + 1 - ns.quietFrom; k > 0; {
			k = v.silence(k, sh.c.cfg.BreakerThreshold)
		}
	}
	return v.breaker, v.consecFail, v.openLeft
}

// snapBreakerWords decodes the breaker words (breaker, consecFail,
// openLeft) of every SnapNode record in a shard's live bank.
func snapBreakerWords(t *testing.T, j *Journal) map[uint16][3]uint16 {
	t.Helper()
	out := make(map[uint16][3]uint16)
	sc := nvm.NewScanner(ckLayout(), j.r.Words(j.bk.Live()))
	for {
		tag, _, payload, status := sc.Next()
		if status == nvm.ScanEnd {
			return out
		}
		if status != nvm.ScanRecord {
			t.Fatalf("live bank scan: status %v", status)
		}
		if tag == ckTagSnapNode {
			out[payload[0]] = [3]uint16{payload[1], payload[3], payload[4]}
		}
	}
}

// TestLazyBreakerMatchesLegacyWalk drives the lazy breaker clock and
// the frozen per-node walk through the same seeded schedules —
// healthy and unhealthy reports, silent stretches, compactions, store
// deaths, and Recover with partial re-Attach — and after every step
// requires the same per-node breaker, settled consecFail and openLeft,
// Stats.Timeouts, and transition arcs; after every compaction, the
// same breaker words in the snapshot.
func TestLazyBreakerMatchesLegacyWalk(t *testing.T) {
	var cov lockstepCoverage
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lockstepBreakers(t, seed, &cov)
		})
	}
	// The schedules must have exercised every arc, recovery with
	// snapshotted breakers, and the fail-closed latch.
	for arc, n := range cov.arcs {
		if n == 0 {
			t.Errorf("no %v → %v arc in any schedule", BreakerState(arc[0]), BreakerState(arc[1]))
		}
	}
	if cov.recoveries == 0 || cov.failClosed == 0 {
		t.Errorf("schedules ran %d recoveries and %d fail-closed reports", cov.recoveries, cov.failClosed)
	}
}

// lockstepCoverage tallies what the lockstep schedules exercised.
type lockstepCoverage struct {
	arcs       map[[2]int64]int
	recoveries int
	failClosed uint64
}

func lockstepBreakers(t *testing.T, seed int64, cov *lockstepCoverage) {
	if cov.arcs == nil {
		cov.arcs = map[[2]int64]int{
			{int64(BreakerClosed), int64(BreakerOpen)}:     0,
			{int64(BreakerOpen), int64(BreakerHalfOpen)}:   0,
			{int64(BreakerHalfOpen), int64(BreakerOpen)}:   0,
			{int64(BreakerHalfOpen), int64(BreakerClosed)}: 0,
		}
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := 3 + rng.Intn(10)
	cfg := Config{
		Shards:           1 + rng.Intn(3),
		PollTimeout:      time.Hour, // ticks only from the test
		BreakerThreshold: 1 + rng.Intn(6),
		CompactEvery:     2 + rng.Intn(12),
	}
	store := NewStore(cfg.Shards)
	m := NewMetrics(obs.NewRegistry())
	cfg.Obs = m
	col, err := NewDurable(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the reactors: the test is the only goroutine driving the
	// shards, so every step is deterministic.
	col.Close()

	leg := &legacyBreakers{
		threshold: cfg.BreakerThreshold,
		nodes:     make(map[transport.NodeID]*legacyNode),
		snap:      make(map[transport.NodeID]legacyNode),
	}
	seen := m.Trace.Emitted()
	gens := make([]int64, len(col.shards))
	for i, sh := range col.shards {
		gens[i] = sh.j.bk.Gen()
	}

	attach := func(id transport.NodeID) {
		if ns := col.shardFor(id).nodes[id]; ns != nil && ns.end != nil {
			return
		}
		if err := col.Attach(id, transport.NewLink(transport.LinkConfig{}).CollectorEnd()); err != nil {
			t.Fatal(err)
		}
		leg.node(id).attached = true
	}
	for id := 0; id < nodes; id++ {
		if rng.Intn(4) != 0 {
			attach(transport.NodeID(id))
		}
	}
	sick := make([]bool, nodes) // nodes in an unhealthy streak

	check := func(step int, what string) {
		t.Helper()
		if st := col.Stats(); st.Timeouts != leg.timeouts {
			t.Fatalf("step %d (%s): Timeouts %d, legacy %d", step, what, st.Timeouts, leg.timeouts)
		}
		for id, ln := range leg.nodes {
			sh := col.shardFor(id)
			ns := sh.nodes[id]
			if ns == nil {
				if *ln != (legacyNode{}) {
					t.Fatalf("step %d (%s): node %d missing, legacy %+v", step, what, id, *ln)
				}
				continue
			}
			b, cf, ol := settledBreaker(sh, ns)
			if b != ns.breaker {
				t.Fatalf("step %d (%s): node %d has an overdue transition %v → %v", step, what, id, ns.breaker, b)
			}
			if b != ln.breaker || cf != ln.consecFail || ol != ln.openLeft {
				t.Fatalf("step %d (%s): node %d breaker %v/%d/%d, legacy %v/%d/%d",
					step, what, id, b, cf, ol, ln.breaker, ln.consecFail, ln.openLeft)
			}
		}
		var got [][3]int64
		for _, ev := range m.Trace.Events() {
			if ev.Seq >= seen && ev.Kind == EvBreaker {
				got = append(got, [3]int64{ev.Node, ev.A, ev.B})
			}
		}
		seen = m.Trace.Emitted()
		sortArcs(got)
		want := leg.takeArcs()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s): arcs %v, legacy %v", step, what, got, want)
		}
		for _, a := range got {
			cov.arcs[[2]int64{a[1], a[2]}]++
		}
		for i, sh := range col.shards {
			if g := sh.j.bk.Gen(); g != gens[i] {
				gens[i] = g
				checkSnapshot(t, step, col, sh, leg)
				leg.snapshot(func(id transport.NodeID) bool { return col.shardFor(id) == sh })
			}
		}
	}

	seq := make([]uint64, nodes)
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(100); {
		case r < 50: // one report
			id := transport.NodeID(rng.Intn(nodes))
			sh := col.shardFor(id)
			ns := sh.nodes[id]
			if ns == nil || ns.end == nil {
				continue
			}
			if rng.Intn(8) == 0 {
				sick[id] = !sick[id]
			}
			unhealthy := sick[id] && rng.Intn(5) != 0
			var flags uint8
			if unhealthy {
				flags = transport.FlagUnhealthy
			}
			s := seq[id]
			if rng.Intn(4) == 0 && s > 0 {
				s = uint64(rng.Int63n(int64(s))) // a re-delivery
			} else {
				seq[id]++
			}
			sh.mu.Lock()
			dead := sh.dead
			sh.handleLocked(id, ns, transport.Packet{
				Kind: transport.KindReport, Node: id, Seq: s, Value: int64(s) * 7, Flags: flags,
			})
			sh.acks = sh.acks[:0]
			sh.mu.Unlock()
			leg.handle(id, unhealthy, dead)
			check(step, "report")
		case r < 85: // a silent stretch
			n := 1 + rng.Intn(cfg.BreakerThreshold+openTicks+2)
			for k := 0; k < n; k++ {
				col.tickAll()
				leg.idleTickLegacy()
				check(step, "tick")
			}
		case r < 91: // a forced compaction
			sh := col.shards[rng.Intn(len(col.shards))]
			sh.mu.Lock()
			if !sh.dead {
				sh.compactLocked()
			}
			sh.mu.Unlock()
			check(step, "compact")
		case r < 93: // the store dies
			store.Kill()
		case r < 96: // attach a detached node
			attach(transport.NodeID(rng.Intn(nodes)))
			check(step, "attach")
		default: // crash and recover, re-attaching a random subset
			cov.failClosed += col.Stats().FailClosed
			cov.recoveries++
			if col, err = Recover(cfg, store); err != nil {
				t.Fatalf("step %d: recover: %v", step, err)
			}
			col.Close()
			for i, sh := range col.shards {
				gens[i] = sh.j.bk.Gen() // recovery re-snapshots the recovered state
			}
			leg.recover()
			for id := 0; id < nodes; id++ {
				if rng.Intn(3) != 0 {
					attach(transport.NodeID(id))
				}
			}
			check(step, "recover")
		}
	}
}

// checkSnapshot compares a shard's live snapshot breaker words with
// the legacy breakers of the nodes it owns.
func checkSnapshot(t *testing.T, step int, col *Collector, sh *shard, leg *legacyBreakers) {
	t.Helper()
	got := snapBreakerWords(t, sh.j)
	for id := range sh.nodes {
		ln := leg.nodes[id]
		if ln == nil {
			ln = &legacyNode{}
		}
		want := [3]uint16{uint16(ln.breaker), uint16(ln.consecFail), uint16(ln.openLeft)}
		if w, ok := got[uint16(id)]; !ok || w != want {
			t.Fatalf("step %d: node %d snapshot breaker words %v (present %v), legacy %v", step, id, w, ok, want)
		}
	}
	if len(got) != len(sh.nodes) {
		t.Fatalf("step %d: snapshot holds %d nodes, shard %d", step, len(got), len(sh.nodes))
	}
}
