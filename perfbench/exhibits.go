package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ulpdp/internal/dataset"
	"ulpdp/internal/experiments"
)

// pinsJSON holds the SHA-256 of `dpbench -quick -json -seed S NAME`
// for every exhibit NAME and pinned seed S, plus the hash of the whole
// `dpbench -quick -json -seed S` stream (the exhibits concatenated in
// dpbench order). Regenerate it with perfbench/pins.sh.
//
//go:embed pins.json
var pinsJSON []byte

type pinSet struct {
	Seeds    []uint64                     `json:"seeds"`
	Exhibits map[string]map[string]string `json:"exhibits"` // seed → exhibit → hash
	Suite    map[string]string            `json:"suite"`    // seed → stream hash
}

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	if len(p.Seeds) == 0 {
		return p, fmt.Errorf("pins.json: no pinned seeds")
	}
	return p, nil
}

// seedFor maps a workload seed onto a pinned exhibit seed, so every
// run's output has a reference to match.
func (p pinSet) seedFor(seed uint64) uint64 {
	return p.Seeds[seed%uint64(len(p.Seeds))]
}

// suite is the exhibit workload's input: the quick configuration at
// one pinned seed, and that seed's hashes.
type suite struct {
	cfg    experiments.Config
	names  []string
	pins   map[string]string
	stream string
}

func newSuite(seed uint64) (suite, error) {
	p, err := loadPins()
	if err != nil {
		return suite{}, err
	}
	s := p.seedFor(seed)
	key := strconv.FormatUint(s, 10)
	cfg := experiments.Quick()
	cfg.Seed = s
	if err := cfg.Validate(); err != nil {
		return suite{}, err
	}
	return suite{cfg: cfg, names: experiments.Names(), pins: p.Exhibits[key], stream: p.Suite[key]}, nil
}

// run executes every exhibit in dpbench order, checking each one's
// JSON bytes against its pin and the whole stream against the suite
// pin. each, when non-nil, receives every exhibit's wall time.
func (s suite) run(t *tally, each func(name string, d time.Duration)) {
	stream := sha256.New()
	bad := t.failed
	for _, name := range s.names {
		t.attempted++
		h := sha256.New()
		t0 := time.Now()
		err := experiments.RunJSON(name, s.cfg, io.MultiWriter(h, stream))
		d := time.Since(t0)
		if each != nil {
			each(name, d)
		}
		switch {
		case err != nil:
			t.fail("exhibit %s (seed %d): %v", name, s.cfg.Seed, err)
		case hexSum(h) != s.pins[name]:
			t.fail("exhibit %s (seed %d): output hash %s, pinned %q", name, s.cfg.Seed, hexSum(h), s.pins[name])
		}
	}
	if t.failed == bad && hexSum(stream) != s.stream {
		t.fail("exhibit suite (seed %d): stream hash %s, pinned %q", s.cfg.Seed, hexSum(stream), s.stream)
	}
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// setupProbes is how many child processes exhibitSetup times.
const setupProbes = 51

// exhibitSetup measures the exhibit workload's set-up: the time from
// starting a process to its first exhibit call, as the median over
// setupProbes child processes that set up and exit at that point.
func exhibitSetup(seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, seed)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		xs = append(xs, d.Seconds())
	}
	describe("setup_s", "s", xs)
	return median(xs), nil
}

func probeOnce(exe string, seed uint64) (time.Duration, error) {
	cmd := exec.Command(exe, "-setup-probe", "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	werr := cmd.Wait()
	switch {
	case rerr != nil:
		return 0, rerr
	case werr != nil:
		return 0, werr
	case line != "ready\n":
		return 0, fmt.Errorf("child said %q", line)
	}
	return d, nil
}

// setupProbe is the child side of exhibitSetup: everything the suite
// does before its first exhibit call, then a readiness line.
func setupProbe(seed uint64) int {
	if _, err := newSuite(seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("ready")
	return 0
}

// measureExhibits runs whole suites until the run time is spent (at
// least one; a quick suite outlasts a short run).
func measureExhibits(e *env) error {
	setup, err := exhibitSetup(e.seed)
	if err != nil {
		return err
	}
	s, err := newSuite(e.seed)
	if err != nil {
		return err
	}
	var walls, cpus []float64
	deadline := time.Now().Add(e.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		s.run(&e.tally, nil)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
	}
	describe("wall_s", "s", walls)
	describe("cpu_s", "s", cpus)
	e.set("wall_s", median(walls), "s")
	e.set("setup_s", setup, "s")
	e.set("max_rss_mb", maxRSSMB(), "MiB")
	return nil
}

// exhibitSweep is the exhibit half of the per-layer sweep: one suite
// with each exhibit timed, then each catalog dataset's generator timed
// at the suite's seed.
func exhibitSweep(e *env) error {
	s, err := newSuite(e.seed)
	if err != nil {
		return err
	}
	s.run(&e.tally, func(name string, d time.Duration) {
		e.set("experiments."+name+"_s", d.Seconds(), "s")
	})
	for _, m := range dataset.Catalog() {
		slug := strings.TrimSuffix(m.FileName(), ".csv")
		t0 := time.Now()
		xs := m.Generate(s.cfg.Seed)
		e.set("dataset."+slug+"_generate_s", time.Since(t0).Seconds(), "s")
		e.attempted++
		if len(xs) != m.Entries {
			e.fail("dataset %s: generated %d entries, want %d", m.Name, len(xs), m.Entries)
		}
	}
	return nil
}
