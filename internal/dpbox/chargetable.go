package dpbox

import (
	"encoding/binary"
	"math"
	"sync"

	"ulpdp/internal/core"
	"ulpdp/internal/laplace"
)

// chargeTable is Algorithm 1's charge table for one DP-Box
// configuration: the guard threshold, the per-band charges, the
// resample watchdog's cap and the certified clamp it degrades to. The
// paper fixes it at secure boot, so in hardware it is a constant; here
// it is an immutable value, built once per configuration from the
// exact analysis and shared by pointer among every box (and every
// crash-recovered box) configured alike.
type chargeTable struct {
	an        *core.Analyzer // nil in naive (GuardDisabled) mode
	threshold int64          // guard threshold in steps
	segs      []core.Segment
	segU      []int64
	interiorU int64 // interior charge in budget units
	topU      int64 // top charge in budget units

	// Resample watchdog (resampling mode): cap on resample cycles and
	// the certified thresholding clamp the trip degrades to.
	resampleCap int   // 0 = watchdog off
	degradeTh   int64 // certified thresholding threshold in steps
	degradeU    int64 // degrade charge in budget units
	degradeOK   bool  // degradeTh carries a certificate
}

// chargeKey holds every input a chargeTable depends on. Leaving one
// out would hand a box another configuration's charges: a privacy
// bug, not a performance bug.
type chargeKey struct {
	par          core.Params
	mult         float64
	bands        string // encodeBands(Config.Multipliers)
	resampling   bool
	constantTime bool
	candidates   int
	guardOff     bool
	watchdogOff  bool
	thOverride   int64
}

// tableKey is the charge-table key for par under the box's Config and
// mode registers.
func (b *DPBox) tableKey(par core.Params) chargeKey {
	return chargeKey{par: par, mult: b.cfg.Mult, bands: b.bands,
		resampling: b.resampling, constantTime: b.cfg.ConstantTime, candidates: b.cfg.Candidates,
		guardOff: b.cfg.GuardDisabled, watchdogOff: b.cfg.WatchdogDisabled, thOverride: b.thOverride}
}

// encodeBands packs the charging multipliers into a comparable key
// field: their float64 bits, little-endian, 8 bytes each.
func encodeBands(mults []float64) string {
	bits := make([]byte, 0, 8*len(mults))
	for _, m := range mults {
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(m))
	}
	return string(bits)
}

// chargeTablesMax bounds the table cache's entry count. Tables are
// small, but an explicit threshold override makes the key space
// unbounded per analyzer.
const chargeTablesMax = 256

var (
	tablesMu sync.Mutex
	tables   = map[chargeKey]*chargeTable{}
)

func init() {
	// A table holds its analyzer: drop it when the analyzer cache
	// does, so the tables keep no PMF reachable beyond that cache's
	// bound.
	core.OnAnalyzerEvict(func(an *core.Analyzer) {
		tablesMu.Lock()
		defer tablesMu.Unlock()
		for k, t := range tables {
			if t.an == an {
				delete(tables, k)
			}
		}
	})
}

// chargeTableFor returns the shared table for k, building it on first
// use. A failed threshold solve is returned, not cached.
func chargeTableFor(k chargeKey) (*chargeTable, error) {
	tablesMu.Lock()
	t := tables[k]
	tablesMu.Unlock()
	if t != nil {
		return t, nil
	}
	// Build outside the lock: the analysis calls into the analyzer
	// cache, whose eviction hook takes tablesMu.
	t, err := buildChargeTable(k)
	if err != nil {
		return nil, err
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if prev := tables[k]; prev != nil {
		return prev, nil
	}
	if t.an != nil && !t.an.Cached() {
		// Evicted while we built: caching the table now would outlive
		// the hook that should have dropped it.
		return t, nil
	}
	if len(tables) >= chargeTablesMax {
		for old := range tables {
			delete(tables, old)
			break
		}
	}
	tables[k] = t
	return t, nil
}

// buildChargeTable runs the exact analysis for one configuration.
func buildChargeTable(k chargeKey) (*chargeTable, error) {
	par := k.par
	bits := []byte(k.bands)
	mults := make([]float64, len(bits)/8)
	for i := range mults {
		mults[i] = math.Float64frombits(binary.LittleEndian.Uint64(bits[8*i:]))
	}
	t := &chargeTable{}
	switch {
	case k.guardOff:
		t.threshold = laplace.NewDist(par.FxP()).MaxK()
	case k.thOverride >= 0:
		t.threshold = k.thOverride
		t.an = core.CachedAnalyzer(par)
	default:
		var th int64
		var err error
		switch {
		case k.resampling && k.constantTime:
			th, err = core.ExactConstantTimeThreshold(par, k.mult, k.candidates)
		case k.resampling:
			th, err = core.ResamplingThreshold(par, k.mult)
		default:
			th, err = core.ThresholdingThreshold(par, k.mult)
		}
		if err != nil {
			return nil, err
		}
		t.threshold = th
		t.an = core.CachedAnalyzer(par)
	}
	// Resample watchdog: cap the resample loop at a bound derived from
	// the exact miss probability, and precompute the certified
	// thresholding clamp the trip degrades to.
	if k.resampling && !k.constantTime && !k.guardOff && !k.watchdogOff {
		pMiss := laplace.NewDist(par.FxP()).TailMag(t.threshold + 1)
		t.resampleCap = watchdogCap(pMiss)
		if th, err := core.ThresholdingThreshold(par, k.mult); err == nil {
			t.degradeTh = th
			t.degradeU = ceilUnits(k.mult * par.Eps)
			t.degradeOK = true
		}
	}
	if t.an == nil {
		// Naive mode: flat nominal charge (and no guarantee — the
		// entire point of Fig. 12).
		t.interiorU = ceilUnits(par.Eps)
		t.topU = t.interiorU
		return t, nil
	}
	// Resampling renormalizes each input's conditional by its
	// acceptance mass; the per-output charges (derived from the
	// thresholding profile) absorb that slack explicitly, capped at
	// the certified top charge.
	zSlack := 0.0
	if k.resampling {
		tail := laplace.NewDist(par.FxP()).TailMag(t.threshold)
		zSlack = -math.Log1p(-2 * tail)
	}
	t.segs = t.an.Segments(t.threshold, mults)
	t.interiorU = ceilUnits(t.an.InteriorLoss(t.threshold) + zSlack)
	if k.thOverride < 0 {
		// Certified threshold: the exact worst case is below Mult·ε,
		// so Mult·ε is a sound top band and caps every other charge.
		t.topU = ceilUnits(k.mult * par.Eps)
		t.interiorU = minI64(t.interiorU, t.topU)
	} else {
		// Override (e.g. randomized-response mode): the threshold
		// carries no certificate, so the charge table must come from
		// the exact analysis. An infinite worst case (an override into
		// the hole region) drains the entire budget on first use — the
		// honest price of an uncertified configuration.
		rep := t.an.ThresholdingLoss(t.threshold)
		if rep.Infinite {
			t.topU = math.MaxInt32
		} else {
			t.topU = ceilUnits(rep.MaxLoss)
		}
		if t.interiorU > t.topU {
			t.topU = t.interiorU
		}
	}
	t.segU = make([]int64, len(t.segs))
	for i, s := range t.segs {
		t.segU[i] = minI64(ceilUnits(s.Mult*par.Eps+zSlack), t.topU)
	}
	return t, nil
}

// watchdogCap converts the per-cycle miss probability of the resample
// loop into the watchdog's cycle cap: the smallest n with
// pMiss^n ≤ 2^-64, clamped to [4, 2048]. An honest URNG therefore
// trips the watchdog with probability at most 2^-64 per transaction;
// any trip in practice indicates a faulty or adversarial RNG, and the
// transaction degrades to the certified thresholding clamp instead of
// looping forever.
func watchdogCap(pMiss float64) int {
	const failBits = 64
	if !(pMiss > 0) {
		// A miss is impossible for an honest RNG; keep a small cap as
		// a backstop against fault-induced misses.
		return 4
	}
	if pMiss >= 1 {
		return 2048
	}
	n := int(math.Ceil(failBits * math.Ln2 / -math.Log(pMiss)))
	if n < 4 {
		n = 4
	}
	if n > 2048 {
		n = 2048
	}
	return n
}

func ceilUnits(nats float64) int64 {
	// Infinite or absurd losses saturate to the budget-draining
	// charge: converting +Inf to int64 directly would wrap negative
	// and *credit* the ledger.
	if math.IsNaN(nats) || nats >= float64(math.MaxInt32)*chargeUnit {
		return math.MaxInt32
	}
	return int64(math.Ceil(nats / chargeUnit))
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
