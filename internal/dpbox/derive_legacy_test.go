package dpbox

// The per-box derivation as it stood before charge tables were shared,
// retained as the executable specification of buildChargeTable. Its
// body is the old DPBox.derive verbatim, except that it writes a fresh
// chargeTable instead of the box's own fields and leaves the sampler
// alone. The differential test (chargetable_test.go) asserts that the
// shared table equals it field for field.

import (
	"math"

	"ulpdp/internal/core"
	"ulpdp/internal/laplace"
)

func legacyDerive(b *DPBox) (*chargeTable, error) {
	par := b.params()
	if err := par.Validate(); err != nil {
		return nil, err
	}
	r := &chargeTable{}
	switch {
	case b.cfg.GuardDisabled:
		r.threshold = laplace.NewDist(par.FxP()).MaxK()
		r.an = nil
		r.segs = nil
	case b.thOverride >= 0:
		r.threshold = b.thOverride
		r.an = core.CachedAnalyzer(par)
	default:
		var th int64
		var err error
		switch {
		case b.resampling && b.cfg.ConstantTime:
			th, err = core.ExactConstantTimeThreshold(par, b.cfg.Mult, b.cfg.Candidates)
		case b.resampling:
			th, err = core.ResamplingThreshold(par, b.cfg.Mult)
		default:
			th, err = core.ThresholdingThreshold(par, b.cfg.Mult)
		}
		if err != nil {
			return nil, err
		}
		r.threshold = th
		r.an = core.CachedAnalyzer(par)
	}
	r.resampleCap, r.degradeOK = 0, false
	if b.resampling && !b.cfg.ConstantTime && !b.cfg.GuardDisabled && !b.cfg.WatchdogDisabled {
		pMiss := laplace.NewDist(par.FxP()).TailMag(r.threshold + 1)
		r.resampleCap = watchdogCap(pMiss)
		if th, err := core.ThresholdingThreshold(par, b.cfg.Mult); err == nil {
			r.degradeTh = th
			r.degradeU = ceilUnits(b.cfg.Mult * par.Eps)
			r.degradeOK = true
		}
	}
	if r.an != nil {
		zSlack := 0.0
		if b.resampling {
			tail := laplace.NewDist(par.FxP()).TailMag(r.threshold)
			zSlack = -math.Log1p(-2 * tail)
		}
		r.segs = r.an.Segments(r.threshold, b.cfg.Multipliers)
		r.interiorU = ceilUnits(r.an.InteriorLoss(r.threshold) + zSlack)
		if b.thOverride < 0 {
			r.topU = ceilUnits(b.cfg.Mult * par.Eps)
			r.interiorU = minI64(r.interiorU, r.topU)
		} else {
			rep := r.an.ThresholdingLoss(r.threshold)
			if rep.Infinite {
				r.topU = math.MaxInt32
			} else {
				r.topU = ceilUnits(rep.MaxLoss)
			}
			if r.interiorU > r.topU {
				r.topU = r.interiorU
			}
		}
		r.segU = make([]int64, len(r.segs))
		for i, s := range r.segs {
			r.segU[i] = minI64(ceilUnits(s.Mult*par.Eps+zSlack), r.topU)
		}
	} else {
		r.interiorU = ceilUnits(par.Eps)
		r.topU = r.interiorU
		r.segU = nil
	}
	return r, nil
}
