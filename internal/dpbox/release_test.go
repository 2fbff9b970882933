package dpbox

import (
	"errors"
	"math"
	"sync"
	"testing"

	"ulpdp/internal/nvm"
	"ulpdp/internal/nvm/nvmtest"
)

// journalCfg is smallCfg with a fresh journal attached.
func journalCfg(seed uint64) (Config, *Journal) {
	j := NewJournal()
	cfg := smallCfg(seed)
	cfg.Journal = j
	return cfg, j
}

// windowOf collects the box's release window through ReleaseFor.
func windowOf(b *DPBox) map[uint64]Release {
	rels := make(map[uint64]Release)
	for seq := uint64(0); seq < b.NextSeq(); seq++ {
		if rel, ok := b.ReleaseFor(seq); ok {
			rels[seq] = rel
		}
	}
	return rels
}

func TestNoiseValueSeqAtMostOnce(t *testing.T) {
	cfg, _ := journalCfg(5)
	b := boot(t, cfg, 1e6)

	first, err := b.NoiseValueSeq(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed || first.FromCache {
		t.Fatalf("first release marked replayed/cached: %+v", first)
	}
	if first.Charged <= 0 {
		t.Fatal("first release not charged")
	}
	budget := b.BudgetRemaining()

	// Every re-ask for the same sequence — the retry loop after a lost
	// ACK — replays the identical value free of charge.
	for i := 0; i < 5; i++ {
		again, err := b.NoiseValueSeq(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Replayed {
			t.Fatalf("retry %d not marked replayed", i)
		}
		if again.Value != first.Value {
			t.Fatalf("retry %d redrew noise: %d != %d", i, again.Value, first.Value)
		}
		if again.Charged != 0 {
			t.Fatalf("retry %d charged %g nats", i, again.Charged)
		}
	}
	if got := b.BudgetRemaining(); got != budget {
		t.Fatalf("retries moved the budget: %g -> %g", budget, got)
	}

	// A new sequence draws fresh noise and charges again.
	second, err := b.NoiseValueSeq(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if second.Replayed {
		t.Fatal("fresh sequence marked replayed")
	}
	if second.Charged <= 0 {
		t.Fatal("fresh sequence not charged")
	}
	if b.NextSeq() != 2 {
		t.Fatalf("NextSeq = %d, want 2", b.NextSeq())
	}
}

func TestRecoveredReplayIsBitExact(t *testing.T) {
	cfg, j := journalCfg(7)
	b := boot(t, cfg, 1e6)

	want := make(map[uint64]int64)
	for seq := uint64(0); seq < 6; seq++ {
		r, err := b.NoiseValueSeq(seq, int64(2*seq))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = r.Value
	}

	// Crash: volatile state (including the noise stream position and
	// the release window) is gone; only the journal survives.
	j.Kill()
	b2, err := Recover(smallCfg(999), j) // different URNG seed on purpose
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	spentBefore := b2.BudgetRemaining()
	for seq := uint64(0); seq < 6; seq++ {
		r, err := b2.NoiseValueSeq(seq, int64(2*seq))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Replayed {
			t.Fatalf("seq %d redrew after recovery", seq)
		}
		if r.Value != want[seq] {
			t.Fatalf("seq %d: recovered replay %d != pre-crash release %d", seq, r.Value, want[seq])
		}
	}
	if got := b2.BudgetRemaining(); got != spentBefore {
		t.Fatalf("recovered replays charged the ledger: %g -> %g", spentBefore, got)
	}
	if b2.NextSeq() != 6 {
		t.Fatalf("recovered NextSeq = %d, want 6", b2.NextSeq())
	}
}

// TestSeqReleasePowerLossSweep cuts NVM power after every journal word
// write across a sequence-labelled trace and checks the at-most-once
// invariant at each cut: a sequence whose value was handed to the
// caller must replay bit-exactly after recovery, and a recovered
// release must have its charge durably applied (no uncharged binding).
// The cut schedule comes from nvmtest.CrashSweep, the same word-level
// sweep harness the collector's checkpoint tests use.
func TestSeqReleasePowerLossSweep(t *testing.T) {
	type emission struct {
		seq    uint64
		value  int64
		charge int64
	}
	var refEmitted []emission
	nvmtest.CrashSweep(t, func(t testing.TB, pw *nvm.Power, cut int) {
		j := newJournalWith(nvm.NewMemMedium(1), pw)
		cfg := smallCfg(41)
		cfg.Journal = j
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var emitted []emission
		runScript := func() error {
			if err := b.Initialize(1e6, 0); err != nil {
				return err
			}
			if err := b.Configure(1, 0, 16); err != nil {
				return err
			}
			for seq := uint64(0); seq < 5; seq++ {
				r, err := b.NoiseValueSeq(seq, int64(3*seq))
				if err != nil {
					return err
				}
				emitted = append(emitted, emission{seq, r.Value, int64(math.Round(r.Charged / chargeUnit))})
			}
			return nil
		}
		_ = runScript() // death partway is the point
		if cut < 0 {
			// Baseline pass: full power, full trace — record the
			// reference emissions the armed cuts compare against.
			refEmitted = append(refEmitted[:0], emitted...)
		}

		rec, err := Recover(smallCfg(41), j)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if rec.Phase() == PhaseInit {
			if len(emitted) != 0 {
				t.Fatalf("cut %d: %d emissions before budget lock", cut, len(emitted))
			}
			return
		}
		// Invariant A: everything emitted pre-crash replays bit-exactly.
		for _, e := range emitted {
			rel, ok := rec.ReleaseFor(e.seq)
			if !ok {
				t.Fatalf("cut %d: emitted seq %d lost by recovery (redraw risk)", cut, e.seq)
			}
			if rel.Value != e.value {
				t.Fatalf("cut %d: seq %d recovered as %d, emitted %d", cut, e.seq, rel.Value, e.value)
			}
		}
		// Invariant B: the durable spend covers every emitted charge and
		// at most one extra in-flight transaction (charged, not emitted).
		var emittedUnits int64
		for _, e := range emitted {
			emittedUnits += e.charge
		}
		spent := int64(math.Round(1e6/chargeUnit)) - int64(math.Round(rec.BudgetRemaining()/chargeUnit))
		if spent < emittedUnits {
			t.Fatalf("cut %d: %d units spent for %d emitted (uncharged release)", cut, spent, emittedUnits)
		}
		var maxCharge int64
		for _, e := range refEmitted {
			if e.charge > maxCharge {
				maxCharge = e.charge
			}
		}
		if spent > emittedUnits+maxCharge {
			t.Fatalf("cut %d: %d units spent for %d emitted (+%d max): double-spend", cut, spent, emittedUnits, maxCharge)
		}
		// Invariant C: a recovered release the caller never saw is the
		// one allowed charged-but-unemitted transaction; it must still
		// replay consistently if re-asked.
		rels := windowOf(rec)
		if extra := len(rels) - len(emitted); extra < 0 || extra > 1 {
			t.Fatalf("cut %d: %d recovered releases for %d emissions", cut, len(rels), len(emitted))
		}
		if err := rec.Configure(1, 0, 16); err != nil {
			t.Fatalf("cut %d: post-recovery configure: %v", cut, err)
		}
		for seq, rel := range rels {
			r, err := rec.NoiseValueSeq(seq, 0)
			if err != nil {
				t.Fatalf("cut %d: post-recovery replay of seq %d: %v", cut, seq, err)
			}
			if !r.Replayed || r.Value != rel.Value {
				t.Fatalf("cut %d: post-recovery replay of seq %d diverged", cut, seq)
			}
		}
	})
}

// TestJournalWriteGranularity pins one medium write per NVM
// transaction: a charge-release reaches the medium as a single
// 19-word Append, and Recover's compaction of k releases as one
// 16 + 19k-word Append (config, checkpoint, every re-journaled
// release).
func TestJournalWriteGranularity(t *testing.T) {
	med := &nvmtest.CountingMedium{Medium: nvm.NewMemMedium(1)}
	j := newJournalWith(med, nvm.NewPower())
	cfg := smallCfg(17)
	cfg.Journal = j
	b := boot(t, cfg, 1e6)
	const k = 5
	for seq := uint64(0); seq < k; seq++ {
		med.Appends = med.Appends[:0]
		if _, err := b.NoiseValueSeq(seq, int64(seq)); err != nil {
			t.Fatal(err)
		}
		if len(med.Appends) != 1 || med.Appends[0] != 19 {
			t.Fatalf("charge-release %d wrote %v, want one 19-word append", seq, med.Appends)
		}
	}
	med.Appends = med.Appends[:0]
	if _, err := Recover(smallCfg(17), j); err != nil {
		t.Fatal(err)
	}
	if len(med.Appends) != 1 || med.Appends[0] != 16+19*k {
		t.Fatalf("recovery of %d releases wrote %v, want one %d-word append", k, med.Appends, 16+19*k)
	}
}

// TestCompactionKeepsRetransmissionWindow drives more releases than
// the compaction cap and verifies the most recent window survives two
// crashes.
func TestCompactionKeepsRetransmissionWindow(t *testing.T) {
	cfg, j := journalCfg(13)
	b := boot(t, cfg, 1e9)
	const n = compactReleaseCap + 20
	want := make(map[uint64]int64)
	for seq := uint64(0); seq < n; seq++ {
		r, err := b.NoiseValueSeq(seq, 4)
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = r.Value
	}
	j.Kill()
	b2, err := Recover(smallCfg(13), j)
	if err != nil {
		t.Fatal(err)
	}
	// First recovery: RAM holds the same window the compacted NVM
	// does, not everything the replay saw.
	if got := len(windowOf(b2)); got != compactReleaseCap {
		t.Fatalf("first recovery holds %d releases, want the %d-entry window", got, compactReleaseCap)
	}
	// Second crash: only the compacted window survived on NVM.
	j.Kill()
	b3, err := Recover(smallCfg(13), j)
	if err != nil {
		t.Fatal(err)
	}
	rels := windowOf(b3)
	if got := len(rels); got != compactReleaseCap {
		t.Fatalf("second recovery holds %d releases, want the %d-entry window", got, compactReleaseCap)
	}
	for seq := uint64(n - compactReleaseCap); seq < n; seq++ {
		rel, ok := rels[seq]
		if !ok {
			t.Fatalf("window release %d dropped by compaction", seq)
		}
		if rel.Value != want[seq] {
			t.Fatalf("window release %d corrupted: %d != %d", seq, rel.Value, want[seq])
		}
	}
	if b3.NextSeq() != n {
		t.Fatalf("NextSeq after double recovery = %d, want %d", b3.NextSeq(), n)
	}
}

// TestExpiredSeqRefused asks for sequence numbers below NextSeq that
// the release window no longer holds, after two crash recoveries and
// on a box that never crashed: each must fail with ErrSeqExpired,
// leave the budget untouched, and draw no noise (the next fresh
// release matches a twin box that was never asked).
func TestExpiredSeqRefused(t *testing.T) {
	const n = compactReleaseCap + 20
	// next makes n releases and crashes times Kill+Recover, optionally
	// asks for the expired seq 0, then noises the fresh seq n.
	next := func(crashes int, ask bool) NoiseResult {
		cfg, j := journalCfg(29)
		b := boot(t, cfg, 1e9)
		for seq := uint64(0); seq < n; seq++ {
			if _, err := b.NoiseValueSeq(seq, 4); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < crashes; c++ {
			j.Kill()
			var err error
			if b, err = Recover(smallCfg(uint64(30+c)), j); err != nil {
				t.Fatal(err)
			}
			if err := b.Configure(1, 0, 16); err != nil {
				t.Fatal(err)
			}
		}
		if ask {
			before := b.BudgetRemaining()
			if r, err := b.NoiseValueSeq(0, 3); !errors.Is(err, ErrSeqExpired) {
				t.Fatalf("%d crashes: expired seq 0 returned %+v, %v; want ErrSeqExpired", crashes, r, err)
			}
			if spent := before - b.BudgetRemaining(); spent != 0 {
				t.Fatalf("%d crashes: refused request charged %g nats", crashes, spent)
			}
		}
		r, err := b.NoiseValueSeq(n, 5)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, crashes := range []int{2, 0} {
		if got, twin := next(crashes, true), next(crashes, false); got != twin {
			t.Fatalf("%d crashes: refused request moved the noise stream: next release %+v, twin %+v", crashes, got, twin)
		}
	}
}

// TestSkippedSeqRefused: a sequence number below NextSeq that was
// never released is refused too; the box only ever noises above its
// high-water mark.
func TestSkippedSeqRefused(t *testing.T) {
	cfg, _ := journalCfg(31)
	b := boot(t, cfg, 1e6)
	for _, seq := range []uint64{0, 5} {
		if _, err := b.NoiseValueSeq(seq, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.NoiseValueSeq(3, 2); !errors.Is(err, ErrSeqExpired) {
		t.Fatalf("skipped seq 3: err %v, want ErrSeqExpired", err)
	}
	if r, err := b.NoiseValueSeq(5, 2); err != nil || !r.Replayed {
		t.Fatalf("seq 5 retry: %+v, %v; want a replay", r, err)
	}
}

// TestReleaseWindowBounded: the box's release state stays at
// compactReleaseCap entries however long it runs, and holds exactly
// the newest releases.
func TestReleaseWindowBounded(t *testing.T) {
	cfg, _ := journalCfg(37)
	b := boot(t, cfg, 1e12)
	const n = 4096
	vals := make([]int64, n)
	for seq := uint64(0); seq < n; seq++ {
		r, err := b.NoiseValueSeq(seq, int64(seq%17))
		if err != nil {
			t.Fatal(err)
		}
		vals[seq] = r.Value
		if len(b.window.buf) > compactReleaseCap || cap(b.window.buf) > compactReleaseCap {
			t.Fatalf("after %d releases the window holds %d (cap %d), bound %d", seq+1, len(b.window.buf), cap(b.window.buf), compactReleaseCap)
		}
	}
	if b.NextSeq() != n {
		t.Fatalf("NextSeq = %d, want %d", b.NextSeq(), n)
	}
	for seq := uint64(0); seq < n; seq++ {
		rel, ok := b.ReleaseFor(seq)
		if in := seq >= n-compactReleaseCap; ok != in || (ok && rel.Value != vals[seq]) {
			t.Fatalf("seq %d: ReleaseFor = %+v, %v; in window %v, released %d", seq, rel, ok, in, vals[seq])
		}
	}
}

// TestReleaseWindowReplayOrder pushes sequence numbers the way Replay
// may meet them in a journal the box did not write — mostly ascending
// with gaps, some repeated or lower — and checks the ring against a
// plain-slice model: a new high seq is appended and evicts the oldest
// past compactReleaseCap, and a seq below the newest is dropped.
func TestReleaseWindowReplayOrder(t *testing.T) {
	rng := uint64(0x5EED)
	var w releaseWindow
	var model []SeqRelease
	next := uint64(0)
	for i := 0; i < 2000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		seq := next + rng%3
		if rng%5 == 0 {
			seq = (rng >> 8) % (next + 1) // at or below the newest
		}
		e := SeqRelease{seq, Release{Value: int64(i)}}
		w.push(e)
		if seq >= next {
			model = append(model, e)
			if len(model) > compactReleaseCap {
				model = model[1:]
			}
			next = seq + 1
		}
		got := w.ordered()
		if len(got) != len(model) || w.next != next {
			t.Fatalf("step %d: window holds %d entries, next %d; want %d, %d", i, len(got), w.next, len(model), next)
		}
		for k := range got {
			if got[k] != model[k] {
				t.Fatalf("step %d entry %d: %+v, want %+v", i, k, got[k], model[k])
			}
		}
	}
}

// TestBudgetExhaustedSeqReleaseJournaled: once the budget is spent, a
// sequence-labelled request serves the cache — and that zero-charge
// binding is still journaled, so even exhausted-path retries replay
// identically across a crash.
func TestBudgetExhaustedSeqReleaseJournaled(t *testing.T) {
	cfg, j := journalCfg(17)
	b := boot(t, cfg, 0.5) // room for one fresh release only
	first, err := b.NoiseValueSeq(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first release unexpectedly from cache")
	}
	starved, err := b.NoiseValueSeq(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !starved.FromCache || starved.Charged != 0 {
		t.Fatalf("exhausted release not served from cache: %+v", starved)
	}
	if starved.Value != first.Value {
		t.Fatalf("cache served %d, cached value is %d", starved.Value, first.Value)
	}
	j.Kill()
	rec, err := Recover(smallCfg(17), j)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	r, err := rec.NoiseValueSeq(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Replayed || r.Value != starved.Value {
		t.Fatalf("exhausted-path release not replayed after crash: %+v", r)
	}
}

// TestBankConcurrentChannels is the satellite -race hammer: every
// channel of a journaled Bank noising concurrently while the Bank
// clock ticks the shared replenishment timer. The shared ledger must
// neither race nor lose accounting.
func TestBankConcurrentChannels(t *testing.T) {
	const channels = 8
	const perChannel = 40
	j := NewJournal()
	bank, err := NewBank(Config{Bu: 12, By: 10, Mult: 2, Journal: j}, channels, 99)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1e6
	if err := bank.Initialize(budget, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < channels; i++ {
		if err := bank.Box(i).Configure(1, 0, 16); err != nil {
			t.Fatal(err)
		}
	}

	charges := make([]float64, channels)
	errs := make([]error, channels)
	stop := make(chan struct{})
	tickerDone := make(chan struct{})
	go func() { // the Bank clock runs alongside the channels
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				bank.Tick(16)
			}
		}
	}()
	var workers sync.WaitGroup
	for i := 0; i < channels; i++ {
		workers.Add(1)
		go func(ch int) {
			defer workers.Done()
			box := bank.Box(ch)
			for k := 0; k < perChannel; k++ {
				r, err := box.NoiseValue(8)
				if err != nil {
					errs[ch] = err
					return
				}
				charges[ch] += r.Charged
			}
		}(i)
	}
	workers.Wait()
	close(stop)
	<-tickerDone

	for i, err := range errs {
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
	}
	var sum float64
	for _, c := range charges {
		sum += c
	}
	spent := budget - bank.BudgetRemaining()
	if math.Abs(spent-sum) > 1e-6 {
		t.Fatalf("ledger spent %g nats, channels charged %g (lost update)", spent, sum)
	}
	// The journal replay agrees with the volatile ledger bit for bit.
	st, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(st.Units) * chargeUnit; math.Abs(got-bank.BudgetRemaining()) > 1e-9 {
		t.Fatalf("journal replay %g nats != live ledger %g", got, bank.BudgetRemaining())
	}
}
