package dpbox

import (
	"math/rand"
	"testing"
)

// This file pins the budget journal's on-media word format across the
// internal/nvm refactor: legacyJournal is a frozen, verbatim copy of
// the pre-refactor write path (put/appendRecord/append*/compact as
// they stood when the format was introduced), and the differential
// tests drive it in lockstep with the real Journal over seeded
// operation sequences, asserting bit-identical word streams. A fixed
// canonical script is additionally fingerprinted, so a simultaneous
// drift of both implementations still trips the pin.

type legacyJournal struct {
	words []uint16
	seq   uint16
}

func legacyChecksum(hdr uint16, payload []uint16) uint16 {
	c := hdr ^ uint16(0x5AA5)
	for _, w := range payload {
		c ^= w
	}
	return c
}

func legacyEnc64(v int64) [4]uint16 {
	u := uint64(v)
	return [4]uint16{uint16(u), uint16(u >> 16), uint16(u >> 32), uint16(u >> 48)}
}

func (j *legacyJournal) put(w uint16) { j.words = append(j.words, w) }

func (j *legacyJournal) appendRecord(tag uint16, payload []uint16) {
	hdr := tag<<12 | (j.seq & 0x0FFF)
	j.seq++
	j.put(hdr)
	for _, w := range payload {
		j.put(w)
	}
	j.put(legacyChecksum(hdr, payload))
}

func (j *legacyJournal) appendConfig(initialUnits int64, replenishEvery uint64) {
	a, b := legacyEnc64(initialUnits), legacyEnc64(int64(replenishEvery))
	j.appendRecord(tagConfig, []uint16{a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]})
}

func (j *legacyJournal) appendCharge(units int64) {
	p := legacyEnc64(units)
	seq := j.seq
	j.appendRecord(tagIntent, p[:])
	j.seq = seq
	j.appendRecord(tagCommit, nil)
}

func (j *legacyJournal) appendChargeRelease(units int64, reportSeq uint64, value int64, flags uint16) {
	p := legacyEnc64(units)
	seq := j.seq
	j.appendRecord(tagIntent, p[:])
	s, v := legacyEnc64(int64(reportSeq)), legacyEnc64(value)
	j.appendRecord(tagRelease, []uint16{s[0], s[1], s[2], s[3], v[0], v[1], v[2], v[3], flags})
	j.seq = seq
	j.appendRecord(tagCommit, nil)
}

func (j *legacyJournal) appendReplenish() { j.appendRecord(tagReplenish, nil) }

func (j *legacyJournal) appendCheckpoint(units int64) {
	p := legacyEnc64(units)
	j.appendRecord(tagCheckpoint, p[:])
}

func requireWordsEqual(t *testing.T, step string, got, want []uint16) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: word stream length %d, legacy %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %#04x, legacy %#04x", step, i, got[i], want[i])
		}
	}
}

// TestJournalGoldenWordStream drives the refactored journal and the
// frozen legacy encoder through seeded random operation sequences and
// requires bit-identical NVM contents after every single operation.
func TestJournalGoldenWordStream(t *testing.T) {
	for _, seed := range []int64{1, 7, 20260807} {
		rng := rand.New(rand.NewSource(seed))
		j := NewJournal()
		ref := &legacyJournal{}
		j.appendConfig(1<<20, 4096)
		ref.appendConfig(1<<20, 4096)
		requireWordsEqual(t, "config", j.Snapshot(), ref.words)
		reportSeq := uint64(0)
		// The reference's own record of every release it journaled,
		// independent of Replay's window. Seqs only grow, so the
		// newest compactReleaseCap of them are the window every
		// compaction keeps.
		refRels := make(map[uint64]legacyRelease)
		for op := 0; op < 400; op++ {
			switch rng.Intn(5) {
			case 0:
				u := rng.Int63n(1 << 30)
				j.appendCharge(u)
				ref.appendCharge(u)
			case 1:
				u, v := rng.Int63n(1<<30), rng.Int63()-rng.Int63()
				flags := uint16(rng.Intn(4))
				j.appendChargeRelease(u, reportSeq, v, flags)
				ref.appendChargeRelease(u, reportSeq, v, flags)
				refRels[reportSeq] = legacyRelease{v, flags}
				reportSeq++
			case 2:
				j.appendReplenish()
				ref.appendReplenish()
			case 3:
				u := rng.Int63n(1 << 30)
				j.appendCheckpoint(u)
				ref.appendCheckpoint(u)
			case 4:
				// Recovery boundary: replay and compact both journals
				// from the same recovered state (the write path under
				// test is the compaction rewrite itself).
				st, err := j.Replay()
				if err != nil {
					t.Fatalf("seed %d op %d: replay: %v", seed, op, err)
				}
				if err := j.compact(st); err != nil {
					t.Fatalf("seed %d op %d: compact: %v", seed, op, err)
				}
				ref.words = ref.words[:0]
				ref.seq = 0
				ref.appendConfig(st.InitialUnits, st.ReplenishEvery)
				ref.appendCheckpoint(st.Units)
				for _, s := range compactOrder(refRels) {
					rel := refRels[s]
					ref.appendChargeRelease(0, s, rel.value, rel.flags)
				}
			}
			requireWordsEqual(t, "op", j.Snapshot(), ref.words)
		}
	}
}

// legacyRelease is one journaled release as the reference wrote it.
type legacyRelease struct {
	value int64
	flags uint16
}

// compactOrder reproduces compact's release ordering: ascending seq,
// trimmed to the newest compactReleaseCap.
func compactOrder(rels map[uint64]legacyRelease) []uint64 {
	seqs := make([]uint64, 0, len(rels))
	for s := range rels {
		seqs = append(seqs, s)
	}
	for i := 1; i < len(seqs); i++ {
		for k := i; k > 0 && seqs[k] < seqs[k-1]; k-- {
			seqs[k], seqs[k-1] = seqs[k-1], seqs[k]
		}
	}
	if len(seqs) > compactReleaseCap {
		seqs = seqs[len(seqs)-compactReleaseCap:]
	}
	return seqs
}

// goldenBudgetFingerprint is the FNV-1a fingerprint of the canonical
// script's word stream, frozen at the format's introduction. It must
// never change: a new value here means the on-media format moved and
// every deployed journal just became unreadable.
const goldenBudgetFingerprint uint64 = 0xf9906c765ef3ebae

// TestJournalGoldenFingerprint replays a fixed canonical script and
// checks the resulting word stream against the frozen fingerprint —
// the backstop for a simultaneous edit of both encoders above.
func TestJournalGoldenFingerprint(t *testing.T) {
	j := NewJournal()
	j.appendConfig(800, 1000)
	j.appendCharge(16)
	j.appendChargeRelease(32, 0, -5, relFlagDegraded)
	j.appendChargeRelease(0, 1, 7, relFlagFromCache)
	j.appendReplenish()
	j.appendCheckpoint(784)
	j.appendCharge(48)
	var h uint64 = 0xcbf29ce484222325
	for _, w := range j.Snapshot() {
		for _, b := range []byte{byte(w), byte(w >> 8)} {
			h ^= uint64(b)
			h *= 0x100000001b3
		}
	}
	if h != goldenBudgetFingerprint {
		t.Fatalf("canonical word stream fingerprint %#x, frozen %#x — the on-media format changed", h, goldenBudgetFingerprint)
	}
}
