// Package collector is the server side of the fleet protocol: it
// ingests noised reports from N concurrent nodes over lossy links,
// deduplicates them idempotently by (node, seq), ACKs what it has
// durably recorded, and degrades gracefully when a node goes bad.
//
// The ingest plane is sharded and event-driven. Every attached node
// is owned by exactly one shard, chosen by hash(NodeID) % Shards; a
// shard holds its nodes' dedup maps, breaker state, and stats under
// its own lock, so shards never contend with each other. Instead of
// one busy-polling goroutine per node, each link endpoint registers a
// readiness hook (transport.Endpoint.SetNotify): when a frame lands,
// the hook arms the node's pending bit and pushes its ID onto the
// owning shard's ready queue. The shard's single reactor goroutine
// wakes, drains every ready link with TryRecv, applies dedup +
// circuit-breaker policy, and writes the batch's ACKs back after
// releasing the shard lock. Idle links cost nothing — no goroutine,
// no poll, no lock traffic.
//
// Because the ACK is sent only after the report is recorded, "the
// agent saw an ACK" implies "the collector counted the value":
// at-least-once delivery composes with idempotent dedup into
// exactly-once accounting. Backpressure is the link's own bounded
// receive queue: a slow shard lets frames overflow there, which looks
// exactly like packet loss, and the node's retry loop recovers it.
//
// Idle ticks and reactor goroutines come from Config.Clock: wall time
// by default, simulated time under the fleet harness.
//
// Node state is confined to its shard and every per-node decision
// depends only on that node's own report stream, so any shard count
// produces bit-identical per-node values, stats, and breaker
// transitions (see TestShardEquivalenceProperty).
//
// Per-node circuit breakers trip after consecutive failures (idle
// ticks of silence or reports flagged URNG-unhealthy), discard
// traffic while open, then half-open and probe: the next healthy
// report closes the breaker, an unhealthy one re-opens it. While a
// breaker is open — or a node reports its privacy budget exhausted —
// queries for that node serve the last-ACKed cached value, marked
// degraded, instead of failing.
//
// Silence is settled lazily. A shard counts its idle ticks, and each
// node remembers the tick from which its silence counts; the silent
// ticks in between are applied in closed form when the node's next
// frame arrives, before a snapshot, or when a min-heap of due ticks
// says silence is about to trip or half-open the breaker. An idle
// tick therefore costs O(1) plus the nodes whose state it changes,
// not O(nodes).
package collector

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ulpdp/internal/clock"
	"ulpdp/internal/nvm"
	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// BreakerState is a per-node circuit breaker state.
type BreakerState uint8

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen discards traffic while the node cools off.
	BreakerOpen
	// BreakerHalfOpen admits the next report as a probe.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", uint8(s))
}

// openTicks is how many idle ticks an open breaker waits before
// half-opening to probe.
const openTicks = 4

// Config parameterizes a Collector. The zero value gets
// simulation-friendly defaults.
type Config struct {
	// PollTimeout is each shard's idle-tick period (default 2ms). A
	// tick in which a node delivered nothing is one breaker failure
	// tick for that node — the event-driven equivalent of the old
	// per-node empty 2ms poll.
	PollTimeout time.Duration
	// Shards is the number of independent ingest shards (default 8,
	// clamped to [1, MaxShards]). Each shard runs one reactor goroutine
	// and owns the dedup/breaker/stats state of the nodes hashed to
	// it. Per-node results are bit-identical for any shard count.
	Shards int
	// BreakerThreshold is the consecutive-failure count that trips a
	// node's breaker (default 8).
	BreakerThreshold int
	// CompactEvery is how many journaled admissions a shard absorbs
	// before compacting its checkpoint into a fresh snapshot (default
	// 4096; only meaningful with a durable Store attached via
	// NewDurable or Recover).
	CompactEvery int
	// Obs is an optional telemetry plane. Nil costs one nil check per
	// event.
	Obs *Metrics
	// Clock paces the idle tick and runs the shard reactors (nil =
	// clock.Real).
	Clock clock.Clock
}

// MaxShards is the largest shard count a collector runs.
const MaxShards = 1024

// Stats counts collector events; read a snapshot with Collector.Stats.
// Counters are lock-striped per shard and summed on read.
type Stats struct {
	// Accepted counts first-time (node, seq) reports recorded.
	Accepted uint64
	// Duplicates counts re-deliveries of an already-recorded
	// (node, seq); they are re-ACKed but change nothing.
	Duplicates uint64
	// BreakerDrops counts reports discarded by an open breaker.
	BreakerDrops uint64
	// Timeouts counts per-node idle ticks (a node delivering nothing
	// for one PollTimeout period). Each tick adds its silent nodes in
	// one step: attached nodes minus those heard since the last tick.
	Timeouts uint64
	// FailClosed counts reports dropped unACKed because the shard's
	// checkpoint journal lost power: with no way to make an admission
	// durable, the shard stops ACKing entirely (the fail-closed rule
	// inherited from the DP-Box budget ledger) and the nodes' retry
	// loops carry the reports across the restart.
	FailClosed uint64
}

func (s *Stats) add(o Stats) {
	s.Accepted += o.Accepted
	s.Duplicates += o.Duplicates
	s.BreakerDrops += o.BreakerDrops
	s.Timeouts += o.Timeouts
	s.FailClosed += o.FailClosed
}

// denseLimit bounds the flat per-node value slice: sequence numbers
// below it index the slice directly; anything at or above spills to a
// map, so one hostile far-future seq cannot force a huge allocation.
const denseLimit = 1 << 20

// valueStore holds one node's distinct recorded (seq, value) pairs.
// Agents number reports densely from zero, so the hot path is a flat
// slice indexed by seq plus a seen-bitmap (reorder gaps are just
// unset bits) — no hashing, no per-insert bucket churn, amortized
// zero allocations. Far-out seqs fall back to a spill map.
type valueStore struct {
	vals []int64
	seen []uint64 // bitmap over vals: bit seq set once recorded
	far  map[uint64]int64
	n    int // distinct seqs recorded
}

// has reports whether seq was already recorded.
func (vs *valueStore) has(seq uint64) bool {
	if seq < uint64(len(vs.vals)) {
		return vs.seen[seq>>6]&(1<<(seq&63)) != 0
	}
	_, ok := vs.far[seq]
	return ok
}

// get returns the recorded value for seq (zero if absent; callers
// check has first).
func (vs *valueStore) get(seq uint64) int64 {
	if seq < uint64(len(vs.vals)) {
		return vs.vals[seq]
	}
	return vs.far[seq]
}

// put records a first-time seq. Callers guarantee !has(seq).
func (vs *valueStore) put(seq uint64, v int64) {
	if seq < denseLimit {
		for uint64(len(vs.vals)) <= seq {
			vs.vals = append(vs.vals, 0)
		}
		for len(vs.seen)*64 < len(vs.vals) {
			vs.seen = append(vs.seen, 0)
		}
		vs.vals[seq] = v
		vs.seen[seq>>6] |= 1 << (seq & 63)
	} else {
		if vs.far == nil {
			vs.far = make(map[uint64]int64)
		}
		vs.far[seq] = v
	}
	vs.n++
}

// forEach visits every recorded (seq, value) pair.
func (vs *valueStore) forEach(f func(seq uint64, v int64)) {
	for w, word := range vs.seen {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			seq := uint64(w*64 + t)
			f(seq, vs.vals[seq])
			word &^= 1 << t
		}
	}
	for s, v := range vs.far {
		f(s, v)
	}
}

// nodeState is everything the collector knows about one node.
// Guarded by its owning shard's mu, except pending (atomic).
type nodeState struct {
	end *transport.Endpoint

	// pending is the readiness coalescing bit: set by the link's
	// notify hook when frames land (pushing the node ID onto the
	// shard's ready queue exactly once), cleared by the reactor just
	// before draining, so a node sits in the ready queue at most once
	// no matter how many frames arrive. holding is set while the node
	// sits on the shard's holdback list (the link's held hook fired
	// and no idle tick has flushed it yet).
	pending atomic.Bool
	holding atomic.Bool

	store valueStore // dedup + distinct recorded values

	lastSeq   uint64 // highest ACKed seq
	lastValue int64  // its value — the graceful-degradation cache
	haveAck   bool
	exhausted bool // latest report carried FlagFromCache

	// Breaker state. consecFail and openLeft lag by the silent ticks
	// from quietFrom through the shard's current tick; settle applies
	// them. quietFrom is one past the current tick while the node has
	// not been heard since the last tick, two past once it has. armed
	// is the due tick of the node's live entry in the shard's due heap
	// (0 = none).
	breaker    BreakerState
	consecFail int
	openLeft   int
	quietFrom  uint64
	armed      uint64
}

// NodeView is a query snapshot for one node.
type NodeView struct {
	// Value is the freshest ACKed value (the cache while degraded).
	Value int64
	// Seq is the highest ACKed sequence number.
	Seq uint64
	// Have reports whether any report was ever ACKed.
	Have bool
	// Degraded reports that Value is served from the last-ACKed
	// cache: the breaker is not closed, or the node announced its
	// budget exhausted.
	Degraded bool
	// Breaker is the node's current breaker state.
	Breaker BreakerState
	// Reports counts distinct recorded sequence numbers.
	Reports int
}

// Aggregate is the fleet-wide rollup over distinct (node, seq)
// reports. It is order-independent, so any delivery schedule that
// gets every report through yields the identical aggregate.
type Aggregate struct {
	// Nodes counts attached nodes.
	Nodes int
	// Reports counts distinct (node, seq) pairs recorded.
	Reports int
	// Sum is the sum of all distinct recorded values.
	Sum int64
	// Degraded counts nodes currently served from cache.
	Degraded int
}

// ackOut is one batched ACK awaiting writeback.
type ackOut struct {
	end *transport.Endpoint
	pkt transport.Packet
}

// shard owns a hash partition of the fleet: its nodes' dedup and
// breaker state, a stripe of the stats, and one reactor goroutine.
type shard struct {
	c *Collector

	mu    sync.Mutex
	nodes map[transport.NodeID]*nodeState
	stats Stats

	// ready is the coalesced readiness queue (each node at most once,
	// enforced by nodeState.pending); wake is its doorbell. awake is
	// set while the reactor is draining so pushes landing mid-drain
	// skip the ring — the reactor re-checks the queue before parking,
	// so no wakeup is lost.
	readyMu sync.Mutex
	ready   []transport.NodeID
	wake    clock.Bell
	awake   atomic.Bool

	// Reactor-goroutine scratch, reused across batches so the
	// steady-state per-report path allocates nothing.
	spare []transport.NodeID
	acks  []ackOut

	// The lazy breaker clock, under mu: tick counts idle ticks run,
	// attached counts nodes with a link, heard counts distinct nodes
	// heard since the last tick, and due orders nodes by the tick at
	// which silence next changes their breaker state.
	tick     uint64
	attached int
	heard    int
	due      dueHeap

	// holding lists the nodes whose links announced a reorder
	// holdback (each at most once, via nodeState.holding); the idle
	// tick flushes the silent ones.
	holdMu  sync.Mutex
	holding []*nodeState

	// j is the shard's durable checkpoint journal (nil = volatile
	// collector). dead latches once a journal write fails: the shard
	// then drops all traffic unACKed, fail closed, because it can no
	// longer promise an ACKed report survives a restart. sinceCompact
	// counts admissions journaled since the last snapshot.
	j            *Journal
	dead         bool
	sinceCompact int
}

// Collector ingests, dedups, ACKs, and aggregates fleet reports.
type Collector struct {
	cfg     Config
	store   *Store
	shards  []*shard
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// New starts a volatile collector (its shard reactors run until
// Close): dedup state lives purely in memory and dies with the
// process. Use NewDurable to add crash-consistent checkpointing, and
// Recover to rebuild from a store after a crash.
func New(cfg Config) *Collector {
	c, err := build(cfg, nil, nil)
	if err != nil {
		// build only fails on store problems; there is no store.
		panic(err)
	}
	return c
}

// NewDurable starts a collector whose shards journal every admission
// to the store before ACKing it. The store must be fresh (never
// written); a store holding prior state is a crashed collector's and
// must go through Recover — silently reseeding it would erase ACKed
// reports.
func NewDurable(cfg Config, store *Store) (*Collector, error) {
	if store == nil {
		return nil, errors.New("collector: NewDurable requires a store")
	}
	if !store.Empty() {
		return nil, errors.New("collector: store holds prior state; use Recover")
	}
	for i, j := range store.shards {
		if !j.seed() {
			return nil, fmt.Errorf("collector: seeding shard %d checkpoint: store power lost", i)
		}
	}
	return build(cfg, store, nil)
}

// build assembles a collector, optionally durable (store non-nil) and
// optionally from recovered shard states (rec non-nil, indexed by
// shard; recovered nodes start with no endpoint until Attach binds
// one).
func build(cfg Config, store *Store, rec []*shardState) (*Collector, error) {
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 2 * time.Millisecond
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Shards > MaxShards {
		cfg.Shards = MaxShards
	}
	if store != nil {
		// The node→shard hash depends on the shard count, and each
		// shard's journal holds exactly its own nodes: the store's
		// geometry wins.
		cfg.Shards = store.Shards()
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 8
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 4096
	}
	cfg.Clock = clock.Or(cfg.Clock)
	c := &Collector{
		cfg:    cfg,
		store:  store,
		shards: make([]*shard, cfg.Shards),
	}
	for i := range c.shards {
		sh := &shard{
			c:     c,
			nodes: make(map[transport.NodeID]*nodeState),
			wake:  cfg.Clock.NewBell(),
		}
		if store != nil {
			sh.j = store.Shard(i)
		}
		if rec != nil && rec[i] != nil {
			sh.adopt(rec[i])
		}
		c.shards[i] = sh
	}
	for _, sh := range c.shards {
		c.wg.Add(1)
		cfg.Clock.Go(sh.run)
	}
	return c, nil
}

// adopt installs a replayed shard state: every recovered node
// materializes with its dedup store, last-ACK cache, and breaker
// state, awaiting an Attach to bind its link endpoint.
func (sh *shard) adopt(st *shardState) {
	for id := range st.nodes {
		sh.nodes[transport.NodeID(id)] = &nodeState{}
	}
	for id := range st.stores {
		if sh.nodes[transport.NodeID(id)] == nil {
			sh.nodes[transport.NodeID(id)] = &nodeState{}
		}
	}
	for id, ns := range sh.nodes {
		if sn := st.nodes[uint16(id)]; sn != nil {
			ns.breaker = sn.breaker
			ns.consecFail = sn.consecFail
			ns.openLeft = sn.openLeft
			ns.haveAck = sn.haveAck
			ns.exhausted = sn.exhausted
			ns.lastSeq = sn.lastSeq
			ns.lastValue = sn.lastValue
		}
		if vs := st.stores[uint16(id)]; vs != nil {
			ns.store = *vs
		}
	}
}

// Recover is the collector's secure-boot path after a crash: it
// revives the store, replays every shard's checkpoint journal,
// compacts each into a fresh snapshot, and starts a collector whose
// dedup state is exactly what it had ACKed before the crash. Node
// endpoints are not durable — re-Attach each node's link, after which
// retransmissions of already-admitted reports are absorbed as
// duplicates and re-ACKed bit-exactly. Any shard whose journal is
// corrupt (beyond an ordinary torn tail) refuses recovery entirely:
// fail closed, never admit a duplicate.
func Recover(cfg Config, store *Store) (*Collector, error) {
	if store == nil {
		return nil, errors.New("collector: recovery requires a store")
	}
	store.Revive()
	rec := make([]*shardState, store.Shards())
	replayed := 0
	for i, j := range store.shards {
		st, err := j.replay()
		if err != nil {
			return nil, fmt.Errorf("collector: shard %d: %w", i, err)
		}
		rec[i] = st
		replayed += st.replayed
		if !j.compact(st.nodes, st.stores) {
			return nil, fmt.Errorf("collector: shard %d: compaction failed (store power lost)", i)
		}
	}
	c, err := build(cfg, store, rec)
	if err != nil {
		return nil, err
	}
	if m := cfg.Obs; m != nil {
		m.RecoverShards.Add(uint64(store.Shards()))
		m.RecoverReplayed.Add(uint64(replayed))
	}
	return c, nil
}

// shardFor maps a node to its owning shard: hash(NodeID) % Shards.
func (c *Collector) shardFor(id transport.NodeID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15 // Fibonacci hashing spreads dense IDs
	return c.shards[(h>>32)%uint64(len(c.shards))]
}

// Attach registers a node's link endpoint with its owning shard and
// installs the readiness hook. Attaching the same ID twice is an
// error — except onto a crash-recovered node, which exists with its
// dedup state but no endpoint until Attach binds one.
func (c *Collector) Attach(id transport.NodeID, end *transport.Endpoint) error {
	sh := c.shardFor(id)
	sh.mu.Lock()
	ns := sh.nodes[id]
	if ns != nil && ns.end != nil {
		sh.mu.Unlock()
		return fmt.Errorf("collector: node %d already attached", id)
	}
	if ns == nil {
		ns = &nodeState{}
		sh.nodes[id] = ns
	}
	ns.end = end
	sh.attached++
	ns.quietFrom = sh.tick + 1 // the next tick is silent unless it hears a frame
	sh.arm(id, ns)
	sh.mu.Unlock()

	end.SetNotify(func() {
		if ns.pending.CompareAndSwap(false, true) {
			sh.push(id)
		}
	}, func() {
		if ns.holding.CompareAndSwap(false, true) {
			sh.holdMu.Lock()
			sh.holding = append(sh.holding, ns)
			sh.holdMu.Unlock()
		}
	})
	// Frames may have landed before the hook existed; arm and enqueue
	// once so they are drained.
	ns.pending.Store(true)
	sh.push(id)
	return nil
}

// Close stops every shard reactor and waits for them.
func (c *Collector) Close() {
	c.stopped.Store(true)
	for _, sh := range c.shards {
		sh.wake.Ring()
	}
	c.wg.Wait()
}

// push appends a node to the shard's ready queue and rings the
// doorbell. Callers hold the node's pending bit, so each node appears
// at most once (plus the harmless extra entry Attach seeds). The
// doorbell is skipped while the reactor is already draining: if the
// reactor misses this entry in its current pass, it re-checks the
// queue after clearing awake, and the mutex ordering guarantees it
// either sees the entry then or this push sees awake==false and
// rings.
func (sh *shard) push(id transport.NodeID) {
	sh.readyMu.Lock()
	sh.ready = append(sh.ready, id)
	sh.readyMu.Unlock()
	if sh.awake.Load() {
		return
	}
	sh.wake.Ring()
}

// run is the shard reactor: park until a link announces frames (drain
// exactly the ready links) or the next idle tick is due (run it).
func (sh *shard) run() {
	defer sh.c.wg.Done()
	clk, period := sh.c.cfg.Clock, sh.c.cfg.PollTimeout
	next := clk.Now() + period
	for {
		rung := sh.wake.Park(next, true)
		if sh.c.stopped.Load() {
			return
		}
		if rung {
			sh.drainAll()
		} else {
			sh.idleTick()
			next = clk.Now() + period
		}
	}
}

// drainAll drains ready links until the queue stays empty, with the
// awake flag raised so mid-drain arrivals don't ring the doorbell.
// Before parking it lowers the flag and re-checks the queue: a push
// that skipped the doorbell either landed before the check (seen
// here) or loaded awake after the lowering store (and rang).
func (sh *shard) drainAll() {
	sh.awake.Store(true)
	for sh.drain() {
	}
	sh.awake.Store(false)
	sh.readyMu.Lock()
	again := len(sh.ready) > 0
	sh.readyMu.Unlock()
	if again {
		sh.wake.Ring()
	}
}

// drain swaps out the ready queue and processes every pending link:
// clear the node's pending bit (arrivals during the drain re-arm it
// and re-queue the node), pull frames with TryRecv until dry, apply
// breaker + dedup policy under the shard lock, then write the batch's
// ACKs back after releasing it. It reports whether it pulled any
// ready links, so drainAll can loop until the queue runs dry.
func (sh *shard) drain() bool {
	sh.readyMu.Lock()
	ids := sh.ready
	sh.ready = sh.spare[:0]
	sh.readyMu.Unlock()
	if len(ids) == 0 {
		sh.spare = ids
		return false
	}

	batch := 0
	sh.mu.Lock()
	for _, id := range ids {
		ns := sh.nodes[id]
		if ns == nil {
			continue
		}
		ns.pending.Store(false)
		for {
			pkt, ok := ns.end.TryRecv()
			if !ok {
				break
			}
			if pkt.Kind != transport.KindReport || pkt.Node != id {
				continue // stray or echoed frame; the checksum already passed, but it is not ours
			}
			sh.handleLocked(id, ns, pkt)
			batch++
		}
	}
	sh.mu.Unlock()

	// Queue-depth telemetry is sampled once per drained batch (the
	// number of reports this pass pulled off the wire) instead of
	// being written on every enqueue and dequeue — two contended
	// atomic writes per report on the old single-queue path.
	if m := sh.c.cfg.Obs; m != nil && batch > 0 {
		m.QueueDepth.Set(int64(batch))
	}

	// Batched ACK writeback: every ACK follows its report's recording
	// (record under the shard lock, ACK after), preserving the
	// "ACKed implies counted" invariant while keeping link sends off
	// the shard's critical section.
	for i := range sh.acks {
		sh.acks[i].end.Send(sh.acks[i].pkt)
		sh.acks[i] = ackOut{}
	}
	sh.acks = sh.acks[:0]
	sh.spare = ids[:0]
	return true
}

// handleLocked applies breaker policy and dedup for one report and
// queues its ACK. On a durable collector the admission is journaled
// (intent → record → commit) before the in-memory record and the ACK,
// so an ACK always implies a crash-survivable admission. Callers hold
// sh.mu.
func (sh *shard) handleLocked(id transport.NodeID, ns *nodeState, pkt transport.Packet) {
	m := sh.c.cfg.Obs
	if sh.dead {
		// The checkpoint journal lost power: nothing this shard admits
		// can be made durable, so nothing is ACKed — not even
		// duplicates, whose re-ACK costs nothing but would keep nodes
		// trusting a collector that can no longer keep its promise.
		sh.stats.FailClosed++
		if m != nil {
			m.FailClosed.Inc()
		}
		return
	}
	if !sh.breakerPassLocked(id, ns, pkt.Flags&transport.FlagUnhealthy != 0) {
		sh.stats.BreakerDrops++
		if m != nil {
			m.BreakerDrops.Inc()
		}
		return
	}

	if ns.store.has(pkt.Seq) {
		sh.stats.Duplicates++
		if m != nil {
			m.Duplicates.Inc()
		}
	} else {
		// The shard has decided to admit: stamp before the durable
		// append so the admit→checkpoint transition is attributable.
		if m != nil {
			m.Flight.Record(int64(id), pkt.Seq, obs.StageAdmit)
		}
		if sh.j != nil {
			var aflags uint16
			if pkt.Flags&transport.FlagFromCache != 0 {
				aflags |= admFlagFromCache
			}
			if !sh.j.appendAdmission(uint16(id), pkt.Seq, pkt.Value, aflags) {
				// Torn admission: the commit never landed, so replay
				// rolls it back — drop unACKed and latch fail-closed.
				sh.dead = true
				sh.stats.FailClosed++
				if m != nil {
					m.FailClosed.Inc()
				}
				return
			}
			sh.sinceCompact++
			if m != nil {
				m.CheckpointBytes.Add(2 * admissionWords)
				m.Flight.Record(int64(id), pkt.Seq, obs.StageCheckpoint)
			}
		}
		ns.store.put(pkt.Seq, pkt.Value)
		sh.stats.Accepted++
		if m != nil {
			m.Accepted.Inc()
		}
	}
	if !ns.haveAck || pkt.Seq >= ns.lastSeq {
		ns.haveAck = true
		ns.lastSeq = pkt.Seq
		ns.lastValue = ns.store.get(pkt.Seq)
		ns.exhausted = pkt.Flags&transport.FlagFromCache != 0
	}
	// Compact only after the last-ACK cache absorbed this admission,
	// so the snapshot never trails the state it claims to capture.
	if sh.j != nil && sh.sinceCompact >= sh.c.cfg.CompactEvery {
		sh.compactLocked()
	}

	// ACK after recording (including duplicate re-ACKs: the node may
	// have missed the first ACK).
	sh.acks = append(sh.acks, ackOut{
		end: ns.end,
		pkt: transport.Packet{Kind: transport.KindAck, Node: id, Seq: pkt.Seq},
	})
}

// breakerPassLocked marks the node heard for the coming tick and runs
// one report through its breaker, reporting whether the report passes
// on to dedup. Callers hold sh.mu.
func (sh *shard) breakerPassLocked(id transport.NodeID, ns *nodeState, unhealthy bool) bool {
	m := sh.c.cfg.Obs
	sh.settle(id, ns)
	if ns.quietFrom <= sh.tick+1 {
		sh.heard++
		ns.quietFrom = sh.tick + 2
	}
	pass := true
	switch ns.breaker {
	case BreakerOpen:
		// Cooling off: traffic is discarded unACKed; the node's
		// retries will land once the breaker half-opens.
		pass = false
	case BreakerHalfOpen:
		if unhealthy {
			// Probe failed: back to open for another cooldown.
			ns.breaker = BreakerOpen
			ns.openLeft = openTicks
			pass = false
			m.transition(int64(id), BreakerHalfOpen, BreakerOpen)
		} else {
			ns.breaker = BreakerClosed
			ns.consecFail = 0
			m.transition(int64(id), BreakerHalfOpen, BreakerClosed)
		}
	case BreakerClosed:
		if !unhealthy {
			ns.consecFail = 0
			break
		}
		ns.consecFail++
		if ns.consecFail >= sh.c.cfg.BreakerThreshold {
			ns.breaker = BreakerOpen
			ns.openLeft = openTicks
			pass = false
			m.transition(int64(id), BreakerClosed, BreakerOpen)
		}
	}
	sh.arm(id, ns)
	return pass
}

// settle applies the node's silent ticks, quietFrom through sh.tick,
// to its breaker, firing each transition as it falls due — which the
// due heap makes the tick itself. Callers hold sh.mu.
func (sh *shard) settle(id transport.NodeID, ns *nodeState) {
	if ns.end == nil || ns.quietFrom > sh.tick {
		return // no link to tick, or heard since the last tick
	}
	k := sh.tick + 1 - ns.quietFrom
	ns.quietFrom = sh.tick + 1
	for k > 0 {
		from := ns.breaker
		if k = ns.silence(k, sh.c.cfg.BreakerThreshold); ns.breaker == from {
			return
		}
		sh.c.cfg.Obs.transition(int64(id), from, ns.breaker)
	}
}

// silence applies up to k silent ticks to the breaker in closed form,
// stopping at the first transition, and returns the ticks left over:
// a closed breaker counts them as failures and trips at the
// threshold, an open one counts its cooldown down and half-opens, a
// half-open one waits for its probe.
func (ns *nodeState) silence(k uint64, threshold int) uint64 {
	switch ns.breaker {
	case BreakerClosed:
		need := uint64(max(threshold-ns.consecFail, 1))
		if k < need {
			ns.consecFail += int(k)
			return 0
		}
		ns.consecFail += int(need)
		ns.breaker, ns.openLeft = BreakerOpen, openTicks
		return k - need
	case BreakerOpen:
		need := uint64(max(ns.openLeft, 1))
		if k < need {
			ns.openLeft -= int(k)
			return 0
		}
		ns.openLeft -= int(need)
		ns.breaker = BreakerHalfOpen
		return k - need
	}
	return 0
}

// dueTick returns the tick at which silence next changes the node's
// breaker state, or 0 when it never does (half-open, or no link). It
// holds whether or not the node is settled, as long as no transition
// is overdue.
func (sh *shard) dueTick(ns *nodeState) uint64 {
	if ns.end == nil {
		return 0
	}
	switch ns.breaker {
	case BreakerClosed:
		return ns.quietFrom + uint64(max(sh.c.cfg.BreakerThreshold-ns.consecFail, 1)) - 1
	case BreakerOpen:
		return ns.quietFrom + uint64(max(ns.openLeft, 1)) - 1
	}
	return 0
}

// arm makes sure the due heap holds an entry for the node no later
// than its due tick. An entry already armed earlier is left alone: it
// pops, finds the node not yet due, and re-arms. Frames mostly push
// a node's due tick later, so a frame rarely pushes anything.
// Callers hold sh.mu.
func (sh *shard) arm(id transport.NodeID, ns *nodeState) {
	d := sh.dueTick(ns)
	if d == 0 || (ns.armed != 0 && ns.armed <= d) {
		return
	}
	ns.armed = d
	sh.due.push(dueEntry{tick: d, id: id})
}

// compactLocked rewrites the shard's checkpoint as a fresh snapshot
// of every node's dedup store, last-ACK cache, and breaker state,
// double-banked so a crash mid-compaction loses nothing. A compaction
// that cannot complete (store power lost) latches the shard dead.
// Callers hold sh.mu.
func (sh *shard) compactLocked() {
	nodes := make(map[uint16]*snapNode, len(sh.nodes))
	stores := make(map[uint16]*valueStore, len(sh.nodes))
	for id, ns := range sh.nodes {
		sh.settle(id, ns)
		nodes[uint16(id)] = &snapNode{
			breaker:    ns.breaker,
			consecFail: ns.consecFail,
			openLeft:   ns.openLeft,
			haveAck:    ns.haveAck,
			exhausted:  ns.exhausted,
			lastSeq:    ns.lastSeq,
			lastValue:  ns.lastValue,
		}
		stores[uint16(id)] = &ns.store
	}
	if !sh.j.compact(nodes, stores) {
		sh.dead = true
		return
	}
	sh.sinceCompact = 0
	if m := sh.c.cfg.Obs; m != nil {
		m.Compactions.Inc()
		m.CheckpointBytes.Add(uint64(2 * sh.j.liveLen()))
	}
}

// idleTick advances the shard's breaker clock by one tick: every
// attached node not heard since the last tick is one timeout, counted
// in one step, and silence is settled only on the nodes whose breaker
// it trips or half-opens now. It also flushes reorder holdbacks on the
// silent links that announced one (the old per-node Recv deadline did
// this), so a delayed frame on a drained direction is late, never
// lost. Nothing here walks the shard's nodes: the cost is O(1) plus
// the due nodes and the listed holdback links.
func (sh *shard) idleTick() {
	m := sh.c.cfg.Obs
	sh.mu.Lock()
	sh.tick++
	silent := uint64(sh.attached - sh.heard)
	sh.heard = 0
	sh.stats.Timeouts += silent
	if m != nil && silent > 0 {
		m.Timeouts.Add(silent)
	}
	for len(sh.due) > 0 && sh.due[0].tick <= sh.tick {
		e := sh.due.pop()
		ns := sh.nodes[e.id]
		if ns.armed != e.tick {
			continue // superseded by an earlier entry
		}
		ns.armed = 0
		sh.settle(e.id, ns)
		sh.arm(e.id, ns)
	}
	sh.holdMu.Lock()
	kept := sh.holding[:0]
	for _, ns := range sh.holding {
		if ns.quietFrom > sh.tick {
			kept = append(kept, ns) // heard this tick: not silent yet
			continue
		}
		ns.holding.Store(false)
		ns.end.FlushHeld()
	}
	clear(sh.holding[len(kept):])
	sh.holding = kept
	sh.holdMu.Unlock()
	sh.mu.Unlock()
}

// dueEntry asks the idle tick to look at node id at tick.
type dueEntry struct {
	tick uint64
	id   transport.NodeID
}

// dueHeap is a binary min-heap of dueEntry by tick.
type dueHeap []dueEntry

func (h *dueHeap) push(e dueEntry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].tick <= q[i].tick {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *dueHeap) pop() dueEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].tick < q[c].tick {
			c++
		}
		if q[i].tick <= q[c].tick {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// Stats returns a snapshot of the collector counters, summed across
// the shard stripes.
func (c *Collector) Stats() Stats {
	var total Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		total.add(sh.stats)
		sh.mu.Unlock()
	}
	return total
}

// NVMStats aggregates the checkpoint store's engine statistics under
// the shard locks, so it is safe while the reactors are live. A
// volatile collector returns the zero Stats.
func (c *Collector) NVMStats() nvm.Stats {
	if c.store == nil {
		return nvm.Stats{}
	}
	agg := nvm.Stats{
		Banks:      c.store.med.Banks(),
		Writes:     c.store.Writes(),
		FailClosed: c.store.Dead(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st := sh.j.r.Stats()
		sh.mu.Unlock()
		agg.Words += st.Words
		agg.Compactions += st.Compactions
	}
	return agg
}

// Node returns the query view for one node: the freshest value, or
// the last-ACKed cache marked degraded when the breaker is not
// closed or the node's budget is exhausted.
func (c *Collector) Node(id transport.NodeID) (NodeView, bool) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ns := sh.nodes[id]
	if ns == nil {
		return NodeView{}, false
	}
	return NodeView{
		Value:    ns.lastValue,
		Seq:      ns.lastSeq,
		Have:     ns.haveAck,
		Degraded: ns.breaker != BreakerClosed || ns.exhausted,
		Breaker:  ns.breaker,
		Reports:  ns.store.n,
	}, true
}

// Values returns a copy of a node's distinct recorded (seq, value)
// pairs.
func (c *Collector) Values(id transport.NodeID) map[uint64]int64 {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ns := sh.nodes[id]
	if ns == nil {
		return nil
	}
	out := make(map[uint64]int64, ns.store.n)
	ns.store.forEach(func(s uint64, v int64) {
		out[s] = v
	})
	return out
}

// Aggregate rolls up every node's distinct reports. Shards are
// visited in turn, so the rollup is a consistent snapshot per shard
// (and exact whenever the fleet is quiescent, which is when the
// harness reads it).
func (c *Collector) Aggregate() Aggregate {
	var a Aggregate
	for _, sh := range c.shards {
		sh.mu.Lock()
		a.Nodes += len(sh.nodes)
		for _, ns := range sh.nodes {
			a.Reports += ns.store.n
			ns.store.forEach(func(_ uint64, v int64) {
				a.Sum += v
			})
			if ns.breaker != BreakerClosed || ns.exhausted {
				a.Degraded++
			}
		}
		sh.mu.Unlock()
	}
	return a
}
