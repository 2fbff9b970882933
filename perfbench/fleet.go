package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"ulpdp/internal/fault"
	"ulpdp/internal/fleet"
)

// setupRuns is how many one-report fleet runs time a fleet workload's
// set-up.
const setupRuns = 5

// pass is one timed fleet.Run.
type pass struct {
	res  fleet.Result
	wall time.Duration
	cpu  time.Duration
}

func (p pass) reports() int {
	n := 0
	for _, nr := range p.res.Nodes {
		n += len(nr.Recorded)
	}
	return n
}

// config returns the workload's fleet.Config at a seed, with the
// report count overridden when reports > 0.
func (s *fleetSpec) config(seed uint64, reports int) fleet.Config {
	c := s.cfg
	c.Seed = seed
	if reports > 0 {
		c.Reports = reports
	}
	return c
}

// reference is the untimed lossless in-memory run with the same seed
// and node-crash schedule: no link chaos, a volatile collector, no
// collector crashes, no files. Every fleet workload must reproduce its
// per-node values bit for bit.
func (s *fleetSpec) reference(seed uint64) fleet.Config {
	c := s.config(seed, 0)
	c.Link = fault.LinkProfile{}
	c.Durable = false
	c.CollectorCrashes = nil
	return c
}

// run executes one fleet.Run, in a fresh NVM directory under workdir
// when the spec is file-backed, and times it. Before a file-backed run
// the file systems are synced, so no run pays for the write-back of an
// earlier one.
func (s *fleetSpec) run(e *env, cfg fleet.Config) (pass, error) {
	if s.fileNVM {
		dir, err := os.MkdirTemp(e.workdir, "nvm-")
		if err != nil {
			return pass{}, err
		}
		defer os.RemoveAll(dir)
		cfg.NVMDir = dir
		syscall.Sync()
	}
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	res, err := fleet.Run(cfg)
	p := pass{res: res, wall: time.Since(t0), cpu: cpuTime() - c0}
	if err != nil {
		return p, fmt.Errorf("fleet.Run: %w", err)
	}
	return p, nil
}

// digest hashes every node's recorded values and spend in (node, seq)
// order: the per-node values digest two runs must share.
func digest(res fleet.Result, reports int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, nr := range res.Nodes {
		for seq := 0; seq < reports; seq++ {
			put(uint64(nr.Recorded[uint64(seq)]))
		}
		put(math.Float64bits(nr.SpendNats))
	}
	return h.Sum64()
}

// check applies the fleet correctness gates to one run: every report
// ACKed and recorded, no invariant violation, every node's recorded
// values equal to its journaled releases, a fresh start, and — when
// want is non-zero — the reference's values digest. Each report
// counts as one attempted operation.
func check(t *tally, cfg fleet.Config, res fleet.Result, want uint64) {
	t.attempted += cfg.Nodes * cfg.Reports
	for i, nr := range res.Nodes {
		if missing := cfg.Reports - len(nr.Recorded); missing > 0 {
			t.failed += missing - 1
			t.fail("node %d: %d of %d reports never recorded", i, missing, cfg.Reports)
		}
		for seq, v := range nr.Recorded {
			if rel, ok := nr.Released[seq]; !ok || rel.Value != v {
				t.fail("node %d seq %d: recorded %d, journal released %+v (ok=%v)", i, seq, v, rel, ok)
			}
		}
		if len(nr.Released) != len(nr.Recorded) {
			t.fail("node %d: %d releases, %d recorded", i, len(nr.Released), len(nr.Recorded))
		}
	}
	for _, v := range res.Violations {
		t.fail("violation: %s", v)
	}
	if res.Resumed {
		t.fail("run resumed stale NVM state instead of starting fresh")
	}
	if want != 0 {
		if got := digest(res, cfg.Reports); got != want {
			t.fail("values digest %016x differs from the lossless reference %016x", got, want)
		}
	}
}

// referenceDigest runs and checks the lossless reference.
func referenceDigest(e *env, s *fleetSpec) (uint64, error) {
	cfg := s.reference(e.seed)
	res, err := fleet.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	check(&e.tally, cfg, res, 0)
	return digest(res, cfg.Reports), nil
}

// fleetSetup times setupRuns one-report runs of the workload's own
// configuration at its full node count, where building the fleet
// dominates, and returns the median in seconds.
func fleetSetup(e *env, s *fleetSpec) (float64, error) {
	cfg := s.config(e.seed, 1)
	var xs []float64
	for i := 0; i < setupRuns; i++ {
		p, err := s.run(e, cfg)
		if err != nil {
			return 0, err
		}
		check(&e.tally, cfg, p.res, 0)
		xs = append(xs, p.wall.Seconds())
	}
	describe("setup_s", "s", xs)
	return median(xs), nil
}

// measureFleet is the end-to-end run of a fleet workload: set-up
// timing, the lossless reference, then timed passes until the run
// time is spent, each checked against the reference.
func measureFleet(e *env, s *fleetSpec) error {
	setup, err := fleetSetup(e, s)
	if err != nil {
		return err
	}
	ref, err := referenceDigest(e, s)
	if err != nil {
		return err
	}
	cfg := s.config(e.seed, 0)
	var walls, cpus []float64
	deadline := time.Now().Add(e.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		p, err := s.run(e, cfg)
		if err != nil {
			return err
		}
		check(&e.tally, cfg, p.res, ref)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds()*1e6/float64(max(p.reports(), 1)))
	}
	describe("wall_s", "s", walls)
	describe("cpu_us_per_report", "us", cpus)
	e.set("wall_s", median(walls), "s")
	e.set("setup_s", setup, "s")
	e.set("max_rss_mb", maxRSSMB(), "MiB")
	return nil
}
