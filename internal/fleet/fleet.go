// Package fleet is the chaos harness: it stands up N complete nodes
// (journaled DP-Box + ReportAgent) talking to one collector over
// independently seeded lossy links, optionally crash-recovering each
// node on a deterministic schedule, and then checks the two fleet
// invariants end to end:
//
//  1. Exactly-once noising: the set of distinct noised values the
//     collector recorded for a node is bit-identical to the set the
//     node's journal charged — no double-noise, no uncharged release.
//  2. Chaos-transparency: a run under any link chaos profile
//     converges to the same per-node values and the same aggregate
//     as the lossless run with the same seeds, because retransmits
//     replay journaled values and the collector dedups by (node, seq).
//
// Everything is derived from one master seed — URNG streams, link
// schedules, backoff jitter, post-crash reseeds — so a failing grid
// point reproduces exactly.
//
// Every run executes on a discrete-event virtual clock
// (internal/clock): ACK waits, backoff pauses and idle ticks take
// simulated time, which jumps ahead whenever every node worker, shard
// reactor and the collector supervisor is parked. A run is bound by
// its work, not by its timers; Result.SimElapsed reports the
// simulated time it took.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ulpdp/internal/clock"
	"ulpdp/internal/collector"
	"ulpdp/internal/dpbox"
	"ulpdp/internal/fault"
	"ulpdp/internal/node"
	"ulpdp/internal/nvm"
	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// Config parameterizes one fleet run.
type Config struct {
	// Nodes is the fleet size (default 4).
	Nodes int
	// Reports is the reports each node delivers (default 4).
	Reports int
	// Budget is each node's privacy budget in nats (default 1e6).
	Budget float64
	// Link is the chaos profile applied to every link (zero value =
	// lossless).
	Link fault.LinkProfile
	// Seed is the master seed; every other stream derives from it.
	Seed uint64
	// CrashEvery crash-recovers each node after every k-th report
	// (0 = never). The crash lands after noising — possibly mid-
	// retry, before the ACK — so recovery must replay, not redraw.
	CrashEvery int
	// Deadline bounds the whole run in wall time (default 2 minutes):
	// a real-time watchdog over the simulated run.
	Deadline time.Duration
	// BreakerThreshold overrides the collector's breaker threshold
	// (default 64: chaos stalls shouldn't wedge a healthy node, and
	// if a breaker does trip, retries ride out the open window).
	BreakerThreshold int
	// Workers bounds the concurrent node lifecycles (default
	// 8×GOMAXPROCS, capped at Nodes). Node lifecycles are mutually
	// independent and individually deterministic, so the pool size
	// changes scheduling, never results — it is what lets a 10k-node
	// fleet run under the race detector's goroutine budget.
	Workers int
	// Shards overrides the collector's ingest shard count (0 = the
	// collector default). Per-node accounting is bit-identical for
	// any value.
	Shards int
	// Durable runs the collector on a durable checkpoint store
	// (collector.NewDurable), journaling every admission before its
	// ACK. Implied by a non-empty CollectorCrashes schedule or NVMDir.
	Durable bool
	// NVMDir, when non-empty, backs every durable region with the
	// file-backed NVM medium under this directory: the collector's
	// checkpoint store at NVMDir/collector, and every node's budget
	// journal in one medium at NVMDir/nodes, node i on bank i. Implies
	// Durable. A run that finds prior state there recovers it — budget
	// ledgers, release windows, collector checkpoints — and each node
	// continues its report loop where the dead process stopped
	// (Result.Resumed), re-delivering its last un-ACKed release first.
	NVMDir string
	// CollectorCrashes schedules store-wide collector crashes: each
	// ascending entry is a cumulative count of checkpoint words
	// written after startup at which the store's NVM power dies.
	// After each crash the harness closes the collector, rebuilds it
	// with collector.Recover, and re-attaches every node's link;
	// un-ACKed reports ride the nodes' retry loops across the restart
	// and land as fresh admissions or absorbed duplicates.
	CollectorCrashes []int
	// CompactEvery overrides the durable collector's checkpoint
	// snapshot cadence (0 = the collector default).
	CompactEvery int
	// Obs, when non-nil, threads one telemetry registry through every
	// layer of the run: each node's DP-Box charges odometer channel i,
	// and the run checks — live, after every report — that the fleet's
	// cumulative spend stays under the certified n·ε envelope.
	Obs *obs.Registry
	// Flight, when non-nil (requires Obs), attaches the per-report
	// flight recorder to every layer: each report's causal span —
	// noised → journal commit → tx attempts → link rx → shard admit →
	// checkpoint commit → ack — is stamped as it happens, keyed by
	// (node, seq). Each span's noised → ACK latency fills the
	// node.report_latency_us histogram, which stays empty without a
	// recorder. Purely observational: results stay bit-exact.
	Flight *obs.FlightRecorder
	// Burn, when non-nil (requires Obs), attaches the privacy
	// burn-rate alerter to the odometer's charge stream; its latched
	// status surfaces as Result.BurnAlert.
	Burn *obs.BurnAlerter
}

// maxNodes is the largest fleet the wire can address:
// transport.NodeID (and the flight recorder's span key) is 16 bits.
const maxNodes = 1 << 16

// Validate reports whether the configuration is usable. Zero fields
// are valid and take their defaults in Run; Validate rejects what a
// run cannot represent or would otherwise reinterpret silently.
func (c Config) Validate() error {
	if c.Nodes < 0 || c.Nodes > maxNodes {
		return fmt.Errorf("fleet: nodes %d outside [0, %d] (node ids are 16 bits)", c.Nodes, maxNodes)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"reports", c.Reports}, {"crash-every", c.CrashEvery},
		{"breaker threshold", c.BreakerThreshold}, {"workers", c.Workers},
		{"compact-every", c.CompactEvery},
	} {
		if f.v < 0 {
			return fmt.Errorf("fleet: negative %s %d", f.name, f.v)
		}
	}
	if c.Shards < 0 || c.Shards > collector.MaxShards {
		return fmt.Errorf("fleet: shards %d outside [0, %d]", c.Shards, collector.MaxShards)
	}
	if !(c.Budget >= 0) {
		return fmt.Errorf("fleet: budget %g nats, want >= 0", c.Budget)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("fleet: negative deadline %v", c.Deadline)
	}
	for i, w := range c.CollectorCrashes {
		if w < 0 {
			return fmt.Errorf("fleet: collector crash %d at negative word %d", i, w)
		}
		if i > 0 && w <= c.CollectorCrashes[i-1] {
			return fmt.Errorf("fleet: collector crashes not strictly ascending at %d", w)
		}
	}
	if c.Obs == nil && (c.Flight != nil || c.Burn != nil) {
		return errors.New("fleet: Flight and Burn require Obs")
	}
	return nil
}

// NodeResult is the per-node evidence the invariants are checked
// against.
type NodeResult struct {
	// Recorded is the collector's distinct (seq, value) map.
	Recorded map[uint64]int64
	// Released is the first-noising oracle: each seq's journaled release
	// right after its first noising (seeded from a resumed run's window).
	Released map[uint64]dpbox.Release
	// OracleFrom is the oldest seq Released covers: 0 on a fresh run,
	// the oldest release of the recovered window on a resumed one.
	// Releases below it were checked by the run that made them.
	OracleFrom uint64
	// SpendNats is the budget actually consumed.
	SpendNats float64
	// ExpectedSpendNats sums the charges reported at first noising.
	ExpectedSpendNats float64
	// Crashes counts crash-recovery cycles.
	Crashes int
	// Redeliveries counts Resume calls forced by exhausted retry
	// budgets (the at-least-once loop above the agent's own loop).
	Redeliveries int
}

// Result is one completed fleet run.
type Result struct {
	// Nodes holds per-node evidence, indexed by NodeID.
	Nodes []NodeResult
	// Aggregate is the collector's final rollup.
	Aggregate collector.Aggregate
	// Collector is the collector's event counters.
	Collector collector.Stats
	// Link sums every link's event counters.
	Link transport.Stats
	// Violations lists every invariant-1 breach detected in-run.
	Violations []string
	// CollectorRecoveries counts collector crash/recover cycles the
	// run survived.
	CollectorRecoveries int
	// CheckpointWords counts durable checkpoint words written after
	// startup (0 for a volatile collector) — the length of the
	// collector crash schedule's word-write axis.
	CheckpointWords uint64
	// Obs is the final telemetry snapshot (nil unless Config.Obs was
	// set).
	Obs *obs.Snapshot
	// Flight is the flight recorder's final snapshot (nil unless
	// Config.Flight was set), taken after the run quiesced so every
	// ACKed report's span chain is complete.
	Flight *obs.FlightSnapshot
	// Burn is the burn-rate alerter's final state (nil unless
	// Config.Burn was set).
	Burn *obs.BurnSnapshot
	// BurnAlert reports that the burn-rate alerter tripped at any
	// point during the run (latched; false without Config.Burn).
	BurnAlert bool
	// SimElapsed is the simulated time the run took on its virtual
	// clock: ACK waits, backoff pauses and idle ticks, with all
	// computation taking none. A lossless run that never retransmits
	// takes 0.
	SimElapsed time.Duration
	// Resumed reports that prior durable state was found under
	// Config.NVMDir and recovered — the collector's checkpoint store
	// or at least one node journal — instead of starting fresh. A
	// resumed run's spends and violations cover only the reports this
	// process delivered; seed-for-seed comparison against a fresh run
	// is meaningless.
	Resumed bool
}

// splitmix64 derives independent sub-seeds from the master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// subSeed derives the seed for stream (kind, node, epoch).
func subSeed(master uint64, kind, nodeID, epoch int) uint64 {
	s := splitmix64(master ^ uint64(kind)<<48 ^ uint64(nodeID)<<16 ^ uint64(epoch))
	if s == 0 {
		s = 1
	}
	return s
}

const (
	seedURNG = iota + 1
	seedLink
	seedJitter
)

// colSupervisor owns the collector across its crash/recover
// lifecycle: it arms the scheduled store power failures, watches for
// the store to die, and on each death closes the dead collector, runs
// collector.Recover, and re-binds every node's link endpoint to the
// recovered instance. Nodes go through attach so the endpoint registry
// survives the swap; un-ACKed reports simply keep retrying and land on
// the recovered dedup state.
type colSupervisor struct {
	cfg     collector.Config
	store   *collector.Store // nil for a volatile collector
	violate func(string, ...any)

	mu         sync.Mutex
	col        *collector.Collector
	ends       map[transport.NodeID]*transport.Endpoint
	schedule   []int
	next       int
	base       uint64 // store words already written at startup (seeding)
	recoveries int
	broken     bool // recovery failed; stop supervising

	bell    clock.Bell // the watcher's tick and stop signal
	stopped atomic.Bool
	done    chan struct{}
}

// superviseEvery is the crash watcher's tick on the run's clock.
const superviseEvery = 200 * time.Microsecond

func newColSupervisor(cfg collector.Config, store *collector.Store, col *collector.Collector, schedule []int, violate func(string, ...any)) *colSupervisor {
	s := &colSupervisor{
		cfg:     cfg,
		store:   store,
		violate: violate,
		col:     col,
		ends:    make(map[transport.NodeID]*transport.Endpoint),
		done:    make(chan struct{}),
	}
	if store != nil {
		s.schedule = schedule
		s.base = store.Writes()
		s.arm()
	}
	return s
}

// arm schedules the next crash point as a countdown from the store's
// current write cursor. A point the write stream already passed (the
// recovery's own compaction may overshoot it) fires on the very next
// word instead of silently never.
func (s *colSupervisor) arm() {
	if s.store == nil || s.next >= len(s.schedule) {
		return
	}
	target := s.base + uint64(s.schedule[s.next])
	delta := 0
	if w := s.store.Writes(); target > w {
		delta = int(target - w)
	}
	s.store.FailAfterWrites(delta)
}

// watch starts the crash watcher, an actor on the run's clock. The
// store dies between two word writes at the armed point; the watcher
// notices within a tick and runs the recovery. Detection latency only
// widens the fail-closed window — it never changes what was ACKed, so
// results stay exact.
func (s *colSupervisor) watch(clk clock.Clock) {
	if s.store == nil || len(s.schedule) == 0 {
		close(s.done)
		return
	}
	s.bell = clk.NewBell()
	clk.Go(func() {
		defer close(s.done)
		next := clk.Now() + superviseEvery
		for {
			rung := s.bell.Park(next, true)
			if s.stopped.Load() {
				return
			}
			if !rung {
				next = clk.Now() + superviseEvery
				if s.store.Dead() {
					s.recover()
				}
			}
		}
	})
}

// recover replaces the dead collector with one rebuilt from the
// checkpoint store and re-attaches every registered endpoint.
func (s *colSupervisor) recover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return
	}
	s.col.Close()
	c, err := collector.Recover(s.cfg, s.store)
	if err != nil {
		// A pure power crash can never corrupt the checkpoint, so this
		// is itself an invariant breach. The closed collector stays for
		// the final in-memory reads.
		s.violate("collector recovery %d: %v", s.recoveries+1, err)
		s.broken = true
		return
	}
	for id, end := range s.ends {
		if aerr := c.Attach(id, end); aerr != nil {
			s.violate("collector recovery: re-attach node %d: %v", id, aerr)
		}
	}
	s.col = c
	s.recoveries++
	s.next++
	s.arm()
}

// attach registers a node's endpoint for the lifetime of the run,
// across collector restarts.
func (s *colSupervisor) attach(id transport.NodeID, end *transport.Endpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ends[id] = end
	return s.col.Attach(id, end)
}

// finish stops the watcher, absorbs a crash that fired while the run
// settled (e.g. inside a trailing compaction), and hands back the live
// collector for the end-of-run reads.
func (s *colSupervisor) finish() (*collector.Collector, int) {
	s.stopped.Store(true)
	if s.bell != nil {
		s.bell.Ring()
	}
	<-s.done
	if s.store != nil && s.store.Dead() {
		s.recover()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col, s.recoveries
}

func (s *colSupervisor) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.col.Close()
}

// perReportCapNats is the certified worst-case charge of a single
// report under the fleet's box shape: Configure(1, 0, 16) sets
// ε = 2⁻¹ = 0.5 nat and Mult = 2 caps any one transaction (degraded
// or not) at Mult·ε = 1 nat. After k reports a node's odometer can
// therefore never exceed min(Budget, k·perReportCapNats).
const perReportCapNats = 1.0

// PerReportCapNats exports the certified per-report cap for callers
// sizing burn-rate envelopes (fleetsim) against Config.Nodes·Reports.
const PerReportCapNats = perReportCapNats

// boxConfig is the fleet's common DP-Box shape. All nodes share one
// metrics plane; node i charges odometer channel ch = i so the shared
// registry still decomposes spend per node.
func boxConfig(urngSeed uint64, j *dpbox.Journal, m *dpbox.Metrics, ch int) dpbox.Config {
	return dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(urngSeed),
		Journal:     j,
		Obs:         m,
		ObsChannel:  ch,
	}
}

// reading is the deterministic sensor trace: node i's r-th reading.
func reading(i, r int) int64 { return int64((3*i + 5*r) % 17) }

// openNodeMedium opens the one file medium that holds every node's
// budget journal, node i on bank i. It refuses a directory written
// for a different fleet size, or in the retired layout of one
// NVMDir/node-<i> directory per node.
func openNodeMedium(dir string, nodes int) (*nvm.FileMedium, error) {
	if old, _ := filepath.Glob(filepath.Join(dir, "node-[0-9]*")); len(old) > 0 {
		return nil, fmt.Errorf("fleet: %s holds per-node journal directories such as %s, a layout this version does not read; use a fresh directory", dir, filepath.Base(old[0]))
	}
	med, err := nvm.OpenFileMedium(filepath.Join(dir, "nodes"), nodes)
	if err != nil {
		return nil, err
	}
	if med.Banks() != nodes {
		med.Close()
		return nil, fmt.Errorf("fleet: %s holds journals for %d nodes, not %d", dir, med.Banks(), nodes)
	}
	return med, nil
}

// Run validates cfg, executes one fleet run on a fresh virtual clock
// and gathers the evidence.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Reports <= 0 {
		cfg.Reports = 4
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 1e6
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Minute
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 64
	}

	clk := clock.NewVirtual()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
	defer cancel()
	// The deadline is a wall-time watchdog that simulated time cannot
	// see: when it fires, it ends simulated time, releasing every
	// parked actor to notice the expired context.
	defer context.AfterFunc(ctx, clk.Close)()

	// One telemetry plane per layer, all over the same registry. The
	// box plane's odometer has one channel per node.
	var (
		boxM  *dpbox.Metrics
		linkM *transport.Metrics
		nodeM *node.Metrics
		colM  *collector.Metrics
	)
	if cfg.Obs != nil {
		boxM = dpbox.NewMetrics(cfg.Obs, cfg.Nodes)
		linkM = transport.NewMetrics(cfg.Obs)
		nodeM = node.NewMetrics(cfg.Obs)
		colM = collector.NewMetrics(cfg.Obs)
		// The flight/burn instrument names are part of the fleet metric
		// schema whether or not a recorder/alerter is attached, so the
		// golden schema test pins them unconditionally.
		flightM := obs.NewFlightMetrics(cfg.Obs)
		burnM := obs.NewBurnMetrics(cfg.Obs)
		if cfg.Flight != nil {
			cfg.Flight.SetMetrics(flightM)
			boxM.Flight = cfg.Flight
			linkM.Flight = cfg.Flight
			nodeM.Flight = cfg.Flight
			colM.Flight = cfg.Flight
		}
		if cfg.Burn != nil {
			cfg.Burn.Bind(burnM, boxM.Trace)
			boxM.Odometer.SetBurn(cfg.Burn)
		}
	}

	var nodeMed *nvm.FileMedium
	if cfg.NVMDir != "" {
		var err error
		if nodeMed, err = openNodeMedium(cfg.NVMDir, cfg.Nodes); err != nil {
			return Result{}, err
		}
		defer nodeMed.Close()
	}

	res := Result{Nodes: make([]NodeResult, cfg.Nodes)}
	var (
		wg    sync.WaitGroup
		resMu sync.Mutex // guards Violations only; see runNode
	)
	violate := func(format string, args ...any) {
		resMu.Lock()
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		resMu.Unlock()
	}
	markResumed := func() {
		resMu.Lock()
		res.Resumed = true
		resMu.Unlock()
	}

	colCfg := collector.Config{
		BreakerThreshold: cfg.BreakerThreshold,
		Shards:           cfg.Shards,
		CompactEvery:     cfg.CompactEvery,
		Obs:              colM,
		Clock:            clk,
	}
	var sup *colSupervisor
	if cfg.NVMDir != "" || cfg.Durable || len(cfg.CollectorCrashes) > 0 {
		var (
			store *collector.Store
			err   error
		)
		if cfg.NVMDir != "" {
			store, err = collector.OpenStore(filepath.Join(cfg.NVMDir, "collector"), cfg.Shards)
		} else {
			store = collector.NewStore(cfg.Shards)
		}
		if err != nil {
			return Result{}, err
		}
		defer store.Close()
		var c *collector.Collector
		if store.Empty() {
			c, err = collector.NewDurable(colCfg, store)
		} else {
			// A prior process's checkpoints survive on disk: this run
			// is a restart, not a fresh fleet.
			res.Resumed = true
			c, err = collector.Recover(colCfg, store)
		}
		if err != nil {
			return Result{}, err
		}
		sup = newColSupervisor(colCfg, store, c, cfg.CollectorCrashes, violate)
	} else {
		sup = newColSupervisor(colCfg, nil, collector.New(colCfg), nil, violate)
	}
	defer sup.close()
	sup.watch(clk)

	links := make([]*transport.Link, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		fp := fault.NewPlane()
		fp.SetPacketFault(fault.LossyLink(subSeed(cfg.Seed, seedLink, i, 0), cfg.Link))
		links[i] = transport.NewLink(transport.LinkConfig{Plane: fp, Obs: linkM, Clock: clk})
	}

	runNode := func(i int) {
		nr := &NodeResult{}
		// Each lifecycle writes its own distinct slice index, so no
		// mutex is needed here — only the shared Violations append is.
		defer func() { res.Nodes[i] = *nr }()

		// Attach lazily, as the lifecycle starts, so nodes queued
		// behind the worker pool don't sit on the collector accruing
		// idle breaker ticks before their first report. The supervisor
		// keeps the binding across collector restarts.
		if err := sup.attach(transport.NodeID(i), links[i].CollectorEnd()); err != nil {
			violate("node %d: %v", i, err)
			return
		}

		var (
			j   *dpbox.Journal
			box *dpbox.DPBox
			err error
		)
		if nodeMed != nil {
			j = dpbox.OpenJournalBank(nodeMed, i)
			defer j.Close()
		} else {
			j = dpbox.NewJournal()
		}
		if j.Writes() > 0 {
			// The journal holds a prior process's ledger: recover it
			// and continue the numbering instead of re-initializing
			// (which would re-noise already-charged sequence numbers).
			markResumed()
			box, err = dpbox.Recover(boxConfig(subSeed(cfg.Seed, seedURNG, i, 0), nil, boxM, i), j)
			if err != nil {
				violate("node %d: recover from %s: %v", i, cfg.NVMDir, err)
				return
			}
		} else {
			box, err = dpbox.New(boxConfig(subSeed(cfg.Seed, seedURNG, i, 0), j, boxM, i))
			if err != nil {
				violate("node %d: %v", i, err)
				return
			}
			if err := box.Initialize(cfg.Budget, 0); err != nil {
				violate("node %d: %v", i, err)
				return
			}
		}
		if err := box.Configure(1, 0, 16); err != nil {
			violate("node %d: %v", i, err)
			return
		}
		// Spend is accounted from this process's baseline: on a fresh
		// run that is cfg.Budget; on a resumed run the prior spend is
		// already durable and belongs to the dead process's run.
		budget0 := box.BudgetRemaining()
		agentCfg := node.AgentConfig{
			ID:          transport.NodeID(i),
			MaxAttempts: 64,
			JitterSeed:  subSeed(cfg.Seed, seedJitter, i, 0),
			Obs:         nodeM,
			Clock:       clk,
		}
		agent := node.NewReportAgent(box, links[i].NodeEnd(), agentCfg)

		nr.Released = make(map[uint64]dpbox.Release, cfg.Reports)
		start := int(agent.NextSeq())
		for s := start - 1; s >= 0; s-- {
			rel, ok := box.ReleaseFor(uint64(s))
			if !ok {
				nr.OracleFrom = uint64(s) + 1 // older than the recovered window
				break
			}
			nr.Released[uint64(s)] = rel
		}
		if start > 0 {
			// The last journaled release may have died un-ACKed;
			// re-deliver it before new reports. Re-ACKing an already
			// recorded sequence is harmless (collector dedups), and a
			// recovered collector re-ACKs it bit-exactly.
			for agent.Resume(ctx) != nil {
				if ctx.Err() != nil {
					violate("node %d seq %d: resumed release undelivered at deadline", i, start-1)
					return
				}
				nr.Redeliveries++
			}
		}

		for r := start; r < cfg.Reports; r++ {
			out, err := agent.Report(ctx, reading(i, r))
			rel, ok := box.ReleaseFor(uint64(r))
			if !ok || err != nil && ctx.Err() != nil {
				// Nothing journaled (the noising itself failed), or
				// the deadline passed. Any other error is mid-retry
				// abandonment: the binding is durable, and delivery
				// resumes below, possibly on the recovered box.
				violate("node %d seq %d: %v", i, r, err)
				return
			}
			nr.Released[uint64(r)] = rel
			if out.Replayed {
				violate("node %d seq %d: first noising was a replay", i, out.Seq)
			}
			nr.ExpectedSpendNats += out.Charged
			delivered := err == nil

			// Live odometer bound: after r+1 reports, node i's
			// cumulative spend must sit under the certified
			// per-report envelope (crash replays and cache serves
			// charge nothing, so the bound holds across chaos).
			if boxM != nil {
				certified := math.Min(cfg.Budget, float64(r+1)*perReportCapNats)
				if spent := boxM.Odometer.SpentNats(i); spent > certified+1e-9 {
					violate("node %d: odometer %g nats after %d reports exceeds certified %g", i, spent, r+1, certified)
				}
			}

			// Deterministic crash schedule: after noising report
			// r (delivered or not), so recovery sometimes lands
			// mid-retry with an un-ACKed journaled release.
			if cfg.CrashEvery > 0 && (r+1)%cfg.CrashEvery == 0 {
				j.Kill()
				nr.Crashes++
				recovered, rerr := dpbox.Recover(boxConfig(subSeed(cfg.Seed, seedURNG, i, nr.Crashes), nil, boxM, i), j)
				if rerr != nil {
					violate("node %d crash %d: %v", i, nr.Crashes, rerr)
					return
				}
				if cerr := recovered.Configure(1, 0, 16); cerr != nil {
					violate("node %d crash %d: %v", i, nr.Crashes, cerr)
					return
				}
				box = recovered
				agent = node.NewReportAgent(box, links[i].NodeEnd(), agentCfg)
				if agent.NextSeq() != uint64(r)+1 {
					violate("node %d crash %d: NextSeq %d, want %d", i, nr.Crashes, agent.NextSeq(), r+1)
				}
				if got, ok := box.ReleaseFor(uint64(r)); !ok || got != rel {
					violate("node %d crash %d: recovered %+v (held %v), first noising %+v", i, nr.Crashes, got, ok, rel)
				}
			}

			for !delivered {
				if ctx.Err() != nil {
					violate("node %d seq %d: undelivered at deadline", i, r)
					return
				}
				nr.Redeliveries++
				if err := agent.Resume(ctx); err == nil {
					delivered = true
				}
			}
		}

		nr.SpendNats = budget0 - box.BudgetRemaining()

		// Crash-consistency cross-check: replaying the journal
		// must agree with the live ledger.
		st, err := j.Replay()
		if err != nil {
			violate("node %d: journal replay: %v", i, err)
			return
		}
		if live := int64(math.Round(box.BudgetRemaining() * 16)); st.Units != live {
			violate("node %d: journal units %d != live units %d", i, st.Units, live)
		}

		// Odometer-vs-ledger cross-check: both sum the same
		// charges (exact multiples of 1/16 nat), so they must
		// agree to the micronat.
		if boxM != nil {
			if got, want := boxM.Odometer.SpentMicro(i), obs.MicroNats(nr.SpendNats); got != want {
				violate("node %d: odometer %d µnat != ledger spend %d µnat", i, got, want)
			}
		}
	}

	// Bounded worker pool: goroutine-per-node tops out around the race
	// detector's goroutine budget (and thrashes the scheduler) long
	// before the collector saturates; a fixed pool runs 10k-node
	// fleets with a few dozen goroutines.
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8 * runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Nodes {
		workers = cfg.Nodes
	}
	idx := make(chan int)
	wg.Add(workers)
	// Start the workers from one actor, so no simulated time passes
	// before the last of them exists: every worker starts at time 0.
	clk.Go(func() {
		for w := 0; w < workers; w++ {
			clk.Go(func() {
				defer wg.Done()
				for i := range idx {
					runNode(i)
				}
			})
		}
	})
	for i := 0; i < cfg.Nodes; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Aggregate odometer bound: the whole fleet's spend must sit under
	// n · min(Budget, Reports·cap) — the paper's Σ charges ≤ n·ε
	// envelope, checked on the telemetry plane rather than the ledgers.
	if boxM != nil {
		fleetCap := float64(cfg.Nodes) * math.Min(cfg.Budget, float64(cfg.Reports)*perReportCapNats)
		if tot := boxM.Odometer.TotalNats(); tot > fleetCap+1e-9 {
			res.Violations = append(res.Violations, fmt.Sprintf("fleet: aggregate odometer %g nats exceeds certified n·ε bound %g", tot, fleetCap))
		}
	}

	settle(ctx, clk, links)

	// Final reads go through the supervisor: the collector in place now
	// may be the n-th recovered instance, and its recovered state must
	// carry everything any of its predecessors ever ACKed.
	col, recoveries := sup.finish()
	res.CollectorRecoveries = recoveries
	res.SimElapsed = clk.Now()
	if sup.store != nil {
		res.CheckpointWords = sup.store.Writes() - sup.base
	}
	res.Aggregate = col.Aggregate()
	res.Collector = col.Stats()
	for _, l := range links {
		s := l.Stats()
		res.Link.Sent += s.Sent
		res.Link.Delivered += s.Delivered
		res.Link.Dropped += s.Dropped
		res.Link.Duplicated += s.Duplicated
		res.Link.Reordered += s.Reordered
		res.Link.CorruptedInFlight += s.CorruptedInFlight
		res.Link.Overflow += s.Overflow
		res.Link.RejectedCorrupt += s.RejectedCorrupt
	}
	for i := 0; i < cfg.Nodes; i++ {
		res.Nodes[i].Recorded = col.Values(transport.NodeID(i))
	}
	res.Violations = append(res.Violations, CheckExactlyOnce(cfg, res)...)
	if cfg.Obs != nil {
		// Storage-engine introspection rides the same schema whether or
		// not the collector is durable (all-zero gauges when volatile),
		// so the golden metric names stay run-shape independent.
		nst := col.NVMStats()
		cfg.Obs.Gauge("nvm.durable_words").Set(int64(nst.Words))
		cfg.Obs.Gauge("nvm.banks").Set(int64(nst.Banks))
		cfg.Obs.Gauge("nvm.compactions").Set(int64(nst.Compactions))
		snap := cfg.Obs.Snapshot()
		res.Obs = &snap
	}
	res.Flight = cfg.Flight.Snapshot()
	if cfg.Burn != nil {
		res.Burn = cfg.Burn.Snapshot()
		res.BurnAlert = res.Burn.Tripped
	}
	return res, nil
}

// settle runs before the final recovery check and reads. Every report
// is ACKed, but stale duplicate frames can still be queued or held
// back for reordering, and processing them after the final snapshot
// would make recover/replay counters and span chains depend on timing.
// settle waits until every actor on the clock is parked with no
// deadline pending and no frame is left on any uplink. Holdbacks on
// links gone silent are released here: with every node done, no
// deadline remains to drive the idle tick that would flush them.
func settle(ctx context.Context, clk *clock.Virtual, links []*transport.Link) {
	for {
		clk.WaitIdle()
		pending := 0
		for _, l := range links {
			pending += l.CollectorEnd().Pending()
		}
		if pending == 0 || ctx.Err() != nil {
			return
		}
		for _, l := range links {
			l.CollectorEnd().FlushHeld()
		}
	}
}

// CheckExactlyOnce verifies invariant 1 on a completed run: per node,
// the collector's distinct values are exactly the journal's charged
// releases, one per sequence number, with spend matching the charges.
// The collector must hold all Reports values; releases are checked
// from the node's OracleFrom on.
func CheckExactlyOnce(cfg Config, res Result) []string {
	var v []string
	for i, nr := range res.Nodes {
		if len(nr.Recorded) != cfg.Reports {
			v = append(v, fmt.Sprintf("node %d: collector recorded %d distinct reports, want %d", i, len(nr.Recorded), cfg.Reports))
		}
		if want := cfg.Reports - int(nr.OracleFrom); len(nr.Released) != want {
			v = append(v, fmt.Sprintf("node %d: journal holds %d releases from seq %d, want %d", i, len(nr.Released), nr.OracleFrom, want))
		}
		for seq, val := range nr.Recorded {
			if seq < nr.OracleFrom {
				continue
			}
			rel, ok := nr.Released[seq]
			if !ok {
				v = append(v, fmt.Sprintf("node %d seq %d: collector has a value the journal never charged", i, seq))
				continue
			}
			if rel.Value != val {
				v = append(v, fmt.Sprintf("node %d seq %d: collector %d != journal %d", i, seq, val, rel.Value))
			}
		}
		if nr.SpendNats != nr.ExpectedSpendNats {
			v = append(v, fmt.Sprintf("node %d: spent %g nats, first-noising charges sum to %g", i, nr.SpendNats, nr.ExpectedSpendNats))
		}
	}
	return v
}

// CompareRuns verifies invariant 2: two runs (chaos vs lossless, or
// any two profiles) with the same master seed must agree bit-exactly
// on every node's journaled releases, the collector's recorded
// values, and the aggregate.
func CompareRuns(a, b Result) []string {
	var v []string
	if len(a.Nodes) != len(b.Nodes) {
		return []string{fmt.Sprintf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))}
	}
	for i := range a.Nodes {
		an, bn := a.Nodes[i], b.Nodes[i]
		if len(an.Released) != len(bn.Released) {
			v = append(v, fmt.Sprintf("node %d: release counts differ: %d vs %d", i, len(an.Released), len(bn.Released)))
		}
		for seq, ar := range an.Released {
			if br, ok := bn.Released[seq]; !ok || ar.Value != br.Value {
				v = append(v, fmt.Sprintf("node %d seq %d: journaled values differ", i, seq))
			}
		}
		if len(an.Recorded) != len(bn.Recorded) {
			v = append(v, fmt.Sprintf("node %d: recorded counts differ: %d vs %d", i, len(an.Recorded), len(bn.Recorded)))
		}
		for seq, av := range an.Recorded {
			if bv, ok := bn.Recorded[seq]; !ok || av != bv {
				v = append(v, fmt.Sprintf("node %d seq %d: recorded values differ", i, seq))
			}
		}
		if an.SpendNats != bn.SpendNats {
			v = append(v, fmt.Sprintf("node %d: spends differ: %g vs %g nats", i, an.SpendNats, bn.SpendNats))
		}
	}
	if a.Aggregate.Reports != b.Aggregate.Reports || a.Aggregate.Sum != b.Aggregate.Sum {
		v = append(v, fmt.Sprintf("aggregates differ: %+v vs %+v", a.Aggregate, b.Aggregate))
	}
	return v
}
