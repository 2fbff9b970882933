package dpbox

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/laplace"
)

// tableMode is one point on the configuration axes a chargeTable
// depends on besides the sensor range and ε.
type tableMode struct {
	name       string
	cfg        func(*Config)
	resampling bool
	// override returns the threshold override for par (-1 = certified).
	override func(par core.Params) int64
}

func certified(core.Params) int64 { return -1 }

func fixedOverride(t int64) func(core.Params) int64 {
	return func(core.Params) int64 { return t }
}

// holeOverride forces the threshold one step inside the RNG's maximum,
// deep in the hole region where the exact worst case is infinite.
func holeOverride(par core.Params) int64 { return laplace.NewDist(par.FxP()).MaxK() - 1 }

var tableModes = []tableMode{
	{"thresholding", nil, false, certified},
	{"resampling", nil, true, certified},
	{"constant-time-2", func(c *Config) { c.ConstantTime, c.Candidates = true, 2 }, true, certified},
	{"constant-time-4", func(c *Config) { c.ConstantTime, c.Candidates = true, 4 }, true, certified},
	{"rr-override", nil, false, fixedOverride(0)},
	{"rr-override-resampling", nil, true, fixedOverride(0)},
	{"explicit-override", nil, false, fixedOverride(3)},
	{"hole-override", nil, false, holeOverride},
	{"guard-disabled", func(c *Config) { c.GuardDisabled = true }, false, certified},
	{"guard-disabled-resampling", func(c *Config) { c.GuardDisabled = true }, true, certified},
	{"watchdog-disabled", func(c *Config) { c.WatchdogDisabled = true }, true, certified},
	{"mult-3", func(c *Config) { c.Mult = 3 }, false, certified},
	{"three-bands", func(c *Config) { c.Multipliers = []float64{1.1, 1.3, 1.7} }, true, certified},
	{"no-bands", func(c *Config) { c.Multipliers = []float64{} }, false, certified},
}

var tableRanges = [][2]int64{{0, 16}, {-5, 40}, {100, 103}}

// configuredBox boots a box in mode m with registers (shift, rng).
func configuredBox(t *testing.T, m tableMode, shift int, rng [2]int64) *DPBox {
	t.Helper()
	cfg := smallCfg(uint64(shift) + 5)
	if m.cfg != nil {
		m.cfg(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(1e6, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(shift, rng[0], rng[1]); err != nil {
		t.Fatal(err)
	}
	if err := b.SetResampling(m.resampling); err != nil {
		t.Fatal(err)
	}
	if o := m.override(b.params()); o >= 0 {
		if err := b.OverrideThreshold(o); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func cachedTable(k chargeKey) *chargeTable {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	return tables[k]
}

// TestChargeTableMatchesFreshDerivation compares every shared table
// against the frozen per-box derivation, field for field, across each
// key dimension. A solve that fails must fail alike and stay uncached.
// The modes run concurrently, so under -race boxes of different
// configurations build and share tables at the same time.
func TestChargeTableMatchesFreshDerivation(t *testing.T) {
	var compared, failed, holes atomic.Int64
	t.Run("grid", func(t *testing.T) {
		for _, m := range tableModes {
			t.Run(m.name, func(t *testing.T) {
				t.Parallel()
				for _, rng := range tableRanges {
					for shift := -2; shift <= 6; shift++ {
						label := fmt.Sprintf("[%d,%d]/shift %d", rng[0], rng[1], shift)
						b := configuredBox(t, m, shift, rng)
						want, wantErr := legacyDerive(b)
						gotErr := b.derive()
						if (gotErr != nil) != (wantErr != nil) {
							t.Fatalf("%s: derive error %v, reference error %v", label, gotErr, wantErr)
						}
						if gotErr != nil {
							failed.Add(1)
							if b.table != nil {
								t.Fatalf("%s: failed derivation attached a table", label)
							}
							if cachedTable(b.tableKey(b.params())) != nil {
								t.Fatalf("%s: failed threshold solve was cached", label)
							}
							continue
						}
						compared.Add(1)
						if b.table.an != want.an {
							t.Fatalf("%s: table analyzer %p, reference %p", label, b.table.an, want.an)
						}
						if !reflect.DeepEqual(*b.table, *want) {
							t.Fatalf("%s: shared table differs from the reference:\n got  %+v\n want %+v", label, *b.table, *want)
						}
						if b.table.topU == math.MaxInt32 {
							holes.Add(1)
						}
					}
				}
			})
		}
	})
	if failed.Load() == 0 || holes.Load() == 0 || compared.Load() < 300 {
		t.Fatalf("grid lost coverage: %d compared, %d failed solves, %d hole tables",
			compared.Load(), failed.Load(), holes.Load())
	}
}

// noisedTable runs one transaction and returns the table it used.
func noisedTable(t *testing.T, b *DPBox) *chargeTable {
	t.Helper()
	if _, err := b.NoiseValue(8); err != nil {
		t.Fatal(err)
	}
	return b.table
}

func TestChargeTableFollowsReconfiguration(t *testing.T) {
	b, err := New(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if b.Threshold() != 0 || b.ResampleCap() != 0 {
		t.Fatalf("accessors before the first noising: threshold %d, cap %d", b.Threshold(), b.ResampleCap())
	}
	if th, ok := b.DegradeThreshold(); th != 0 || ok {
		t.Fatalf("DegradeThreshold before the first noising = %d, %v", th, ok)
	}
	if err := b.Initialize(1e6, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	base := noisedTable(t, b)

	if err := b.Command(CmdSetEpsilon, 2); err != nil {
		t.Fatal(err)
	}
	if eps2 := noisedTable(t, b); eps2 == base {
		t.Fatal("SetEpsilon kept the previous configuration's table")
	}
	if err := b.Command(CmdSetEpsilon, 1); err != nil {
		t.Fatal(err)
	}
	if back := noisedTable(t, b); back != base {
		t.Fatal("returning to the first configuration did not reuse its table")
	}
	if err := b.Command(CmdSetRangeUpper, 24); err != nil {
		t.Fatal(err)
	}
	if wider := noisedTable(t, b); wider == base {
		t.Fatal("a range change kept the previous configuration's table")
	}
}

// TestChargeTableSharedAcrossBoxes boots boxes concurrently on a cold
// cache (run it under -race): every box, and a box rebuilt by crash
// recovery, must end up on the one cached table.
func TestChargeTableSharedAcrossBoxes(t *testing.T) {
	core.ResetAnalyzerCache()
	const boxes = 8
	got := make([]*chargeTable, boxes)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := New(smallCfg(uint64(i) + 1))
			if err != nil {
				t.Error(err)
				return
			}
			if err := b.Initialize(1e6, 0); err != nil {
				t.Error(err)
				return
			}
			if err := b.Configure(1, 0, 16); err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < 4; n++ {
				if _, err := b.NoiseValue(int64(n)); err != nil {
					t.Error(err)
					return
				}
			}
			got[i] = b.table
		}()
	}
	wg.Wait()
	for i, tb := range got {
		if tb == nil || tb != got[0] {
			t.Fatalf("box %d table %p, box 0 table %p", i, tb, got[0])
		}
	}

	cfg, j := journalCfg(9)
	b := boot(t, cfg, 1e6)
	if noisedTable(t, b) != got[0] {
		t.Fatal("a journaled box built its own table")
	}
	j.Kill()
	rb, err := Recover(smallCfg(10), j)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	if noisedTable(t, rb) != got[0] {
		t.Fatal("a recovered box built its own table")
	}
}

// TestChargeTableCacheDropsEvictedAnalyzers checks that the table cache
// keeps no analyzer the analyzer cache has let go of.
func TestChargeTableCacheDropsEvictedAnalyzers(t *testing.T) {
	b := boot(t, smallCfg(4), 1e6)
	tb := noisedTable(t, b)
	k := b.tableKey(b.params())
	if cachedTable(k) != tb {
		t.Fatal("table not cached after derivation")
	}
	core.ResetAnalyzerCache()
	if tb.an.Cached() {
		t.Fatal("analyzer still marked cached after reset")
	}
	if cachedTable(k) != nil {
		t.Fatal("table outlived its analyzer's eviction")
	}
	// The box keeps its own table; the next box rebuilds an identical
	// one on the new analyzer.
	b2 := boot(t, smallCfg(5), 1e6)
	tb2 := noisedTable(t, b2)
	if tb2 == tb || tb2.an == tb.an {
		t.Fatal("rebuilt table reused the evicted analyzer")
	}
	if !reflect.DeepEqual(tb2.segU, tb.segU) || tb2.threshold != tb.threshold {
		t.Fatal("rebuilt table differs from the evicted one")
	}
}

func TestNewRejectsBadMultipliers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mults []float64
		ok    bool
	}{
		{"default", nil, true},
		{"empty", []float64{}, true},
		{"ascending", []float64{1.1, 1.5, 1.9}, true},
		{"descending", []float64{1.5, 1.25}, false},
		{"duplicate", []float64{1.25, 1.25}, false},
		{"one", []float64{1, 1.5}, false},
		{"below-one", []float64{0.5}, false},
		{"at-mult", []float64{1.25, 2}, false},
		{"above-mult", []float64{3}, false},
		{"nan", []float64{math.NaN()}, false},
		{"nan-after", []float64{1.25, math.NaN()}, false},
		{"inf", []float64{math.Inf(1)}, false},
	} {
		cfg := smallCfg(1)
		cfg.Multipliers = tc.mults
		_, err := New(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s %v: err = %v, want ok %v", tc.name, tc.mults, err, tc.ok)
		}
	}
	// The nil default is left as it was, unvalidated against Mult.
	if _, err := New(Config{Bu: 12, By: 10, Mult: 1.2}); err != nil {
		t.Errorf("default multipliers under Mult 1.2 rejected: %v", err)
	}
}

func TestNewCopiesMultipliers(t *testing.T) {
	mults := []float64{1.25, 1.5}
	cfg := smallCfg(6)
	cfg.Multipliers = mults
	b := boot(t, cfg, 1e6)
	mults[0], mults[1] = 1.1, 1.9 // valid, but another configuration
	tb := noisedTable(t, b)
	ref := boot(t, smallCfg(7), 1e6)
	if noisedTable(t, ref) != tb {
		t.Fatal("mutating the caller's slice after New moved the box's charges")
	}
	if k := b.tableKey(b.params()); k != ref.tableKey(ref.params()) {
		t.Fatalf("mutating the caller's slice changed the cache key: %+v", k)
	}
	if !slices.Equal(b.cfg.Multipliers, []float64{1.25, 1.5}) {
		t.Fatalf("box config aliases the caller's slice: %v", b.cfg.Multipliers)
	}
}

// BenchmarkChargeTableHit looks up a warm table for a fresh box's
// configuration: the path every box and every recovery takes once the
// configuration has been seen. It must not allocate.
func BenchmarkChargeTableHit(b *testing.B) {
	warm, err := New(smallCfg(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Initialize(1e6, 0); err != nil {
		b.Fatal(err)
	}
	if err := warm.Configure(1, 0, 16); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.NoiseValue(8); err != nil {
		b.Fatal(err)
	}
	fresh, err := New(smallCfg(2))
	if err != nil {
		b.Fatal(err)
	}
	if err := fresh.Initialize(1e6, 0); err != nil {
		b.Fatal(err)
	}
	if err := fresh.Configure(1, 0, 16); err != nil {
		b.Fatal(err)
	}
	k := fresh.tableKey(fresh.params())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := chargeTableFor(k)
		if err != nil || tb != warm.table {
			b.Fatal("warm table missed")
		}
	}
}
