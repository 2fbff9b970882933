package collector

import (
	"errors"
	"testing"

	"ulpdp/internal/nvm"
	"ulpdp/internal/nvm/nvmtest"
)

// loadBanks installs raw contents into shard 0's two banks (fuzz and
// corruption harnesses), bypassing the power cell.
func (j *Journal) loadBanks(a, b []uint16) {
	j.r.Erase(0)
	j.r.Erase(1)
	_ = j.r.Medium().Append(0, a)
	_ = j.r.Medium().Append(1, b)
}

// truncateBank chops shard 0's bank b to n words — the torn-erase
// knife.
func (j *Journal) truncateBank(b, n int) {
	words := append([]uint16(nil), j.r.Words(b)[:n]...)
	j.r.Erase(b)
	_ = j.r.Medium().Append(b, words)
}

// TestAdmissionIsOneWrite pins one medium write per admission: the
// intent, record and commit reach the medium as a single
// admissionWords-word Append.
func TestAdmissionIsOneWrite(t *testing.T) {
	med := &nvmtest.CountingMedium{Medium: nvm.NewMemMedium(2)}
	j := newStoreOn(med, nvm.NewPower(), 1).Shard(0)
	if !j.seed() {
		t.Fatal("seed failed")
	}
	for seq := uint64(0); seq < 3; seq++ {
		med.Appends = med.Appends[:0]
		if !j.appendAdmission(7, seq, -int64(seq), 0) {
			t.Fatal("admission failed with live power")
		}
		if len(med.Appends) != 1 || med.Appends[0] != admissionWords {
			t.Fatalf("admission %d wrote %v, want one %d-word append", seq, med.Appends, admissionWords)
		}
	}
}

// admSpec is one scripted admission for the crash-sweep harness.
type admSpec struct {
	node uint16
	seq  uint64
	val  int64
}

// sweepScript is a small deterministic admission schedule across three
// nodes with out-of-order arrivals, compacted every fourth admission —
// enough structure that a crash can land inside an intent, a record, a
// commit, or any word of a snapshot rewrite.
func sweepScript() []admSpec {
	return []admSpec{
		{1, 0, 100}, {2, 0, -7}, {1, 1, 101}, {3, 0, 42},
		{2, 2, -9}, {2, 1, -8}, {1, 2, 102}, {3, 1, 43},
		{1, 3, -103}, {3, 2, 44}, {2, 3, 1 << 40}, {1, 4, 104},
	}
}

// runSweepScript drives shard 0's journal through the script exactly
// the way handleLocked would: journal the admission, and only on
// success apply it to the mirror state (the set of admissions the
// collector would have ACKed). Every fourth ACKed admission triggers a
// compaction of the mirror, like the shard's CompactEvery. Returns the
// mirror of ACKed admissions; the power cell decides how far it gets.
func runSweepScript(s *Store) (*shardState, bool) {
	j := s.Shard(0)
	mirror := newShardState(0)
	if !j.seed() {
		// NewDurable would have errored out: the collector was never
		// born and owes nothing to anyone.
		return mirror, false
	}
	acked := 0
	for _, a := range sweepScript() {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			return mirror, true
		}
		mirror.admit(a.node, a.seq, a.val, 0)
		acked++
		if acked%4 == 0 {
			// A failed compaction is survivable by design: the old bank
			// stays live, but the store is dead so later appends fail.
			j.compact(mirror.nodes, mirror.stores)
		}
	}
	return mirror, true
}

// requireStateEqual asserts the recovered shard state carries exactly
// the mirror's admissions and per-node last-ACK metadata.
func requireStateEqual(t testing.TB, w int, got, want *shardState) {
	t.Helper()
	count := func(st *shardState) int {
		n := 0
		for _, vs := range st.stores {
			n += vs.n
		}
		return n
	}
	if count(got) != count(want) {
		t.Fatalf("crash@%d: recovered %d admissions, ACKed %d", w, count(got), count(want))
	}
	for id, vs := range want.stores {
		rvs := got.stores[id]
		if rvs == nil {
			t.Fatalf("crash@%d: node %d lost entirely", w, id)
		}
		vs.forEach(func(seq uint64, v int64) {
			if !rvs.has(seq) {
				t.Fatalf("crash@%d: node %d seq %d ACKed but lost", w, id, seq)
			}
			if g := rvs.get(seq); g != v {
				t.Fatalf("crash@%d: node %d seq %d = %d, ACKed %d", w, id, seq, g, v)
			}
		})
	}
	for id, sn := range want.nodes {
		rn := got.nodes[id]
		if rn == nil {
			t.Fatalf("crash@%d: node %d metadata lost", w, id)
		}
		if rn.haveAck != sn.haveAck || rn.lastSeq != sn.lastSeq || rn.lastValue != sn.lastValue {
			t.Fatalf("crash@%d: node %d last-ACK cache %+v, want %+v", w, id, rn, sn)
		}
	}
}

// TestCheckpointCrashSweep kills the store power at every single word
// write of the scripted run — inside seeds, intents, records, commits,
// and snapshot rewrites alike — and asserts recovery reconstructs
// exactly the ACKed prefix: no admission the collector ACKed is lost,
// no torn admission is resurrected, and replay never mistakes a torn
// tail for corruption. The sweep itself is the shared
// nvmtest.CrashSweep property harness.
func TestCheckpointCrashSweep(t *testing.T) {
	nvmtest.CrashSweep(t, func(t testing.TB, pw *nvm.Power, cut int) {
		s := newStoreOn(nvm.NewMemMedium(2), pw, 1)
		mirror, seeded := runSweepScript(s)
		if cut < 0 {
			// Baseline pass: just sanity-check the script's word volume.
			if total := int(pw.Writes()); total < 16*len(sweepScript()) {
				t.Fatalf("suspiciously small baseline: %d words", total)
			}
			return
		}
		s.Revive()
		st, err := s.Shard(0).replay()
		if !seeded {
			// The crash landed inside the seed snapshot: NewDurable
			// reported failure, the collector never ran, and replay
			// correctly refuses the half-written journal.
			if err == nil {
				t.Fatalf("crash@%d: replay accepted a journal whose seeding failed", cut)
			}
			return
		}
		if err != nil {
			t.Fatalf("crash@%d: replay refused a pure torn tail: %v", cut, err)
		}
		requireStateEqual(t, cut, st, mirror)
	})
}

// TestCheckpointRecoverSurvivesReCrash re-runs the tail of the script
// on a journal that already crashed once and was recovered — the
// second crash must still recover to the combined ACKed set (recovery
// compacts, so the WAL tail from life one is folded into life two's
// snapshot).
func TestCheckpointRecoverSurvivesReCrash(t *testing.T) {
	script := sweepScript()
	s := NewStore(1)
	j := s.Shard(0)
	mirror := newShardState(0)
	if !j.seed() {
		t.Fatal("seed failed")
	}
	// Life one: first half, then crash mid-word of the next admission.
	for _, a := range script[:6] {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			t.Fatal("unexpected power loss")
		}
		mirror.admit(a.node, a.seq, a.val, 0)
	}
	s.FailAfterWrites(5)
	j.appendAdmission(script[6].node, script[6].seq, script[6].val, 0)

	// Recovery boundary: replay, then compact (what Recover does).
	s.Revive()
	st, err := j.replay()
	if err != nil {
		t.Fatal(err)
	}
	requireStateEqual(t, -1, st, mirror)
	if !j.compact(st.nodes, st.stores) {
		t.Fatal("recovery compaction failed with live power")
	}

	// Life two: the rest of the script, then a second crash and replay.
	for _, a := range script[6:] {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			t.Fatal("unexpected power loss")
		}
		mirror.admit(a.node, a.seq, a.val, 0)
	}
	s.FailAfterWrites(0)
	j.appendAdmission(99, 0, 1, 0)
	s.Revive()
	st2, err := j.replay()
	if err != nil {
		t.Fatal(err)
	}
	requireStateEqual(t, -2, st2, mirror)
	if st2.stores[99] != nil {
		t.Fatal("torn admission from life two resurrected")
	}
}

// TestCheckpointMidLogCorruptionRefused flips bits in the interior of
// a journal that has ACKed admissions and asserts replay fails closed
// with errCorruptCheckpoint — a silently shortened log would re-admit
// reports the collector already ACKed.
func TestCheckpointMidLogCorruptionRefused(t *testing.T) {
	// A journal with the empty seed snapshot followed by a 12-admission
	// WAL tail (no compaction): corruption semantics differ between the
	// snapshot region and the tail, and this layout exposes both.
	build := func(t *testing.T) *Journal {
		t.Helper()
		s := NewStore(1)
		j := s.Shard(0)
		if !j.seed() {
			t.Fatal("seed failed")
		}
		for _, a := range sweepScript() {
			if !j.appendAdmission(a.node, a.seq, a.val, 0) {
				t.Fatal("unexpected power loss")
			}
		}
		return j
	}

	t.Run("payload flip mid-log", func(t *testing.T) {
		j := build(t)
		bank := j.r.Words(j.bk.Live())
		bank[len(bank)/2] ^= 0x0040
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("mid-log flip: err = %v, want errCorruptCheckpoint", err)
		}
	})

	t.Run("invalid tag mid-log", func(t *testing.T) {
		j := build(t)
		// The live bank opens with the seed snapshot's snapBegin
		// header; stamp an unassigned tag on it.
		bank := j.r.Words(j.bk.Live())
		bank[0] = 0xF<<12 | bank[0]&0x0FFF
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("invalid tag: err = %v, want errCorruptCheckpoint", err)
		}
	})

	t.Run("flip in final record reads as torn", func(t *testing.T) {
		// The bank's final record is the last admission's commit; a
		// flip there is indistinguishable from a torn write, and the
		// admission was never ACKed on (commit durability gates the
		// ACK), so replay accepts the log minus that admission.
		j := build(t)
		bank := j.r.Words(j.bk.Live())
		bank[len(bank)-1] ^= 1
		st, err := j.replay()
		if err != nil {
			t.Fatalf("final-record flip refused: %v", err)
		}
		last := sweepScript()[len(sweepScript())-1]
		if st.stores[last.node] != nil && st.stores[last.node].has(last.seq) {
			t.Fatal("admission with a damaged commit was resurrected")
		}
	})

	t.Run("truncated tail reads as torn", func(t *testing.T) {
		j := build(t)
		for cut := 1; cut <= 30; cut++ {
			j.truncateBank(j.bk.Live(), j.liveLen()-1)
			if _, err := j.replay(); err != nil {
				t.Fatalf("cut %d words: %v", cut, err)
			}
		}
	})

	t.Run("snapshot never completed refused", func(t *testing.T) {
		// Truncating into the snapshot itself leaves a bank that never
		// proves it holds the full dedup state; a shard recovered from
		// it could re-admit ACKed reports, so replay refuses.
		j := build(t)
		j.truncateBank(j.bk.Live(), 8)
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("half snapshot: err = %v, want errCorruptCheckpoint", err)
		}
	})

	t.Run("emptied journal refused", func(t *testing.T) {
		// Both banks erased: that is never a fresh boot (seed writes a
		// gen-1 snapshot), so recovery must refuse rather than serve an
		// empty dedup state that would re-admit everything.
		j := build(t)
		j.r.Erase(0)
		j.r.Erase(1)
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("empty journal: err = %v, want errCorruptCheckpoint", err)
		}
	})
}

// TestCompactionCrashKeepsOldBank arms a power failure for every word
// of a compaction's snapshot rewrite in turn and asserts the old bank
// recovers the full pre-compaction state each time.
func TestCompactionCrashKeepsOldBank(t *testing.T) {
	// Baseline: how many words one compaction of this state costs.
	base := NewStore(1)
	bj := base.Shard(0)
	if !bj.seed() {
		t.Fatal("seed failed")
	}
	mirror := newShardState(0)
	for _, a := range sweepScript() {
		if !bj.appendAdmission(a.node, a.seq, a.val, 0) {
			t.Fatal("unexpected power loss")
		}
		mirror.admit(a.node, a.seq, a.val, 0)
	}
	preCompact := int(base.Writes())
	if !bj.compact(mirror.nodes, mirror.stores) {
		t.Fatal("baseline compaction failed")
	}
	snapWords := int(base.Writes()) - preCompact

	for w := 0; w < snapWords; w++ {
		s := NewStore(1)
		j := s.Shard(0)
		if !j.seed() {
			t.Fatal("seed failed")
		}
		for _, a := range sweepScript() {
			if !j.appendAdmission(a.node, a.seq, a.val, 0) {
				t.Fatal("unexpected power loss")
			}
		}
		s.FailAfterWrites(w)
		if j.compact(mirror.nodes, mirror.stores) {
			t.Fatalf("crash@%d: compaction claimed success under dying power", w)
		}
		s.Revive()
		st, err := j.replay()
		if err != nil {
			t.Fatalf("crash@%d: old bank unrecoverable: %v", w, err)
		}
		requireStateEqual(t, w, st, mirror)
	}
}

// TestBankElectionPrefersHigherGeneration covers the crash window
// after a compaction's snapEnd lands but before the old bank is
// erased: both banks hold complete snapshots and recovery must elect
// the newer generation.
func TestBankElectionPrefersHigherGeneration(t *testing.T) {
	s := NewStore(1)
	j := s.Shard(0)
	if !j.seed() {
		t.Fatal("seed failed")
	}
	old := newShardState(0)
	for _, a := range sweepScript()[:4] {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			t.Fatal("unexpected power loss")
		}
		old.admit(a.node, a.seq, a.val, 0)
	}
	// Hand-write generation 2's snapshot into the idle bank with one
	// extra admission, simulating a crash between snapEnd and the old
	// bank's erase.
	next := newShardState(0)
	for _, a := range sweepScript()[:5] {
		next.admit(a.node, a.seq, a.val, 0)
	}
	if !j.writeSnapshot(j.bk.Idle(), j.bk.Gen()+1, next.nodes, next.stores) {
		t.Fatal("snapshot write failed")
	}
	st, err := j.replay()
	if err != nil {
		t.Fatal(err)
	}
	if st.gen != 2 {
		t.Fatalf("elected generation %d, want 2", st.gen)
	}
	requireStateEqual(t, -1, st, next)
	// The losing bank is erased on election.
	if got := j.r.Len(j.bk.Idle()); got != 0 {
		t.Fatalf("losing bank still holds %d words", got)
	}
}

// TestOpenStoreKeepsGeometry: a reopened file-backed store takes its
// shard count from the medium's header, not from the caller.
func TestOpenStoreKeepsGeometry(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err = OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("reopened store has %d shards, want the stored 4", s.Shards())
	}
}
