package nvm

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ulpdp/internal/obs"
)

// testLayout is a small representative dialect: tag 1 carries 4
// words, tag 2 none, tag 3 carries 2, everything else is unknown.
func testLayout() Layout {
	return Layout{Salt: 0x1234, PayloadLen: func(tag uint16) int {
		switch tag {
		case 1:
			return 4
		case 2:
			return 0
		case 3:
			return 2
		}
		return -1
	}}
}

func TestRecordRoundTrip(t *testing.T) {
	r := NewRegion(NewMemMedium(1), NewPower(), testLayout())
	p := Enc64(-123456789)
	if !r.Append(0, 1, p[:]) || !r.Append(0, 2, nil) || !r.Append(0, 3, []uint16{7, 9}) {
		t.Fatal("append failed with live power")
	}
	sc := NewScanner(testLayout(), r.Words(0))
	tag, seq, payload, status := sc.Next()
	if status != ScanRecord || tag != 1 || seq != 0 || Dec64(payload) != -123456789 {
		t.Fatalf("record 1: tag %d seq %d status %v", tag, seq, status)
	}
	if tag, seq, _, status = sc.Next(); status != ScanRecord || tag != 2 || seq != 1 {
		t.Fatalf("record 2: tag %d seq %d status %v", tag, seq, status)
	}
	if tag, _, payload, status = sc.Next(); status != ScanRecord || tag != 3 || payload[1] != 9 {
		t.Fatalf("record 3: tag %d status %v", tag, status)
	}
	if _, _, _, status = sc.Next(); status != ScanEnd {
		t.Fatalf("end: status %v", status)
	}
}

func TestScannerStatuses(t *testing.T) {
	lay := testLayout()
	build := func() []uint16 {
		r := NewRegion(NewMemMedium(1), NewPower(), lay)
		p := Enc64(42)
		r.Append(0, 1, p[:])
		r.Append(0, 2, nil)
		return append([]uint16(nil), r.Words(0)...)
	}

	w := build()
	sc := NewScanner(lay, w[:len(w)-1]) // torn final record
	if _, _, _, status := sc.Next(); status != ScanRecord {
		t.Fatal("first record should parse")
	}
	if _, _, _, status := sc.Next(); status != ScanTorn {
		t.Fatal("truncated tail should scan torn")
	}

	w = build()
	w[0] = 0xF<<12 | w[0]&0x0FFF
	if _, _, _, status := NewScanner(lay, w).Next(); status != ScanBadTag {
		t.Fatal("unknown tag should scan bad-tag")
	}

	w = build()
	w[len(w)-1] ^= 1 // flip the final record's checksum word
	sc = NewScanner(lay, w)
	sc.Next()
	if _, _, _, status := sc.Next(); status != ScanBadSumTail {
		t.Fatal("final-record flip should scan bad-sum-tail")
	}

	w = build()
	w[2] ^= 1 // flip inside the first record's payload
	if _, _, _, status := NewScanner(lay, w).Next(); status != ScanBadSumMid {
		t.Fatal("mid-log flip should scan bad-sum-mid")
	}
}

func TestTxnPairing(t *testing.T) {
	r := NewRegion(NewMemMedium(1), NewPower(), testLayout())
	p := Enc64(5)
	pair := r.TxnBegin(1, p[:])
	if pair != 0 {
		t.Fatalf("begin: pair %d", pair)
	}
	if !r.Append(0, 3, []uint16{1, 2}) {
		t.Fatal("inner append failed")
	}
	if !r.TxnCommit(0, 2, pair) {
		t.Fatal("commit failed")
	}
	// Intent and commit share the pairing seq; the next record gets
	// pair+1 — the wrapping discipline both journals' replay pins on.
	sc := NewScanner(testLayout(), r.Words(0))
	_, s0, _, _ := sc.Next()
	_, s1, _, _ := sc.Next()
	_, s2, _, _ := sc.Next()
	if s0 != 0 || s1 != 1 || s2 != 0 {
		t.Fatalf("seqs %d %d %d, want 0 1 0", s0, s1, s2)
	}
	if r.Seq() != 1 {
		t.Fatalf("post-commit seq %d, want 1", r.Seq())
	}
}

func TestPowerScheduledFailure(t *testing.T) {
	pw := NewPower()
	pw.FailAfterWrites(3)
	r := NewRegion(NewMemMedium(1), pw, testLayout())
	p := Enc64(1)
	if r.Append(0, 1, p[:]) {
		t.Fatal("append should die at word 4")
	}
	if !pw.Dead() || r.Len(0) != 3 {
		t.Fatalf("dead %v len %d, want true 3", pw.Dead(), r.Len(0))
	}
	if r.Append(0, 2, nil) || r.Len(0) != 3 {
		t.Fatal("dead cell accepted a write")
	}
	pw.Revive()
	if !r.Append(0, 2, nil) {
		t.Fatal("revived cell refused a write")
	}
}

// TestStagedTxnCutSweep cuts the power at every word of a staged
// 19-word transaction (6-word intent, 11-word inner record, 2-word
// commit, the budget journal's charge-release shape): the one medium
// write must leave exactly the words a word-by-word write would have,
// and the counters and sequence must read as if it had.
func TestStagedTxnCutSweep(t *testing.T) {
	lay := Layout{Salt: SaltBudget, PayloadLen: func(tag uint16) int {
		switch tag {
		case 1:
			return 4
		case 2:
			return 9
		case 3:
			return 0
		}
		return -1
	}}
	inner := []uint16{1, 2, 3, 4, 5, 6, 7, 8, 9}
	txn := func(pw *Power) (r *Region, intents, commits *obs.Counter, ok bool) {
		r = NewRegion(NewMemMedium(1), pw, lay)
		intents, commits = &obs.Counter{}, &obs.Counter{}
		r.BindCounters(intents, commits)
		p := Enc64(-5)
		pair := r.TxnBegin(1, p[:])
		if !r.Append(0, 2, inner) {
			t.Fatal("staged append reported failure")
		}
		if r.Len(0) != 0 {
			t.Fatalf("staged words visible before commit: len %d", r.Len(0))
		}
		return r, intents, commits, r.TxnCommit(0, 3, pair)
	}
	full, _, _, ok := txn(NewPower())
	clean := full.Words(0)
	if !ok || len(clean) != 19 {
		t.Fatalf("clean txn: ok %v, %d words", ok, len(clean))
	}
	for n := 0; n <= 19; n++ {
		pw := NewPower()
		pw.FailAfterWrites(n)
		r, intents, commits, ok := txn(pw)
		got := r.Words(0)
		if len(got) != n || ok != (n == 19) || pw.Writes() != uint64(n) {
			t.Fatalf("cut %d: len %d ok %v writes %d", n, len(got), ok, pw.Writes())
		}
		for i := range got {
			if got[i] != clean[i] {
				t.Fatalf("cut %d: word %d = %#04x, want %#04x", n, i, got[i], clean[i])
			}
		}
		if wantI := n >= 6; (intents.Value() == 1) != wantI || intents.Value() > 1 {
			t.Fatalf("cut %d: intents %d", n, intents.Value())
		}
		if wantC := n == 19; (commits.Value() == 1) != wantC || commits.Value() > 1 {
			t.Fatalf("cut %d: commits %d", n, commits.Value())
		}
		// The torn record consumed its sequence number: a tear in the
		// inner record leaves pair+2, anywhere else pair+1.
		wantSeq := uint16(1)
		if n >= 6 && n < 17 {
			wantSeq = 2
		}
		if r.Seq() != wantSeq {
			t.Fatalf("cut %d: seq %d, want %d", n, r.Seq(), wantSeq)
		}
	}
}

func TestStats(t *testing.T) {
	r := NewRegion(NewMemMedium(2), NewPower(), testLayout())
	r.Append(0, 2, nil)
	r.Append(1, 2, nil)
	r.NoteCompaction()
	st := r.Stats()
	if st.Words != 4 || st.Banks != 2 || st.Writes != 4 || st.Compactions != 1 || st.FailClosed {
		t.Fatalf("stats %+v", st)
	}
}

func TestBankedCompactFlipsOnlyOnSuccess(t *testing.T) {
	pw := NewPower()
	r := NewRegion(NewMemMedium(2), pw, testLayout())
	bk := NewBanked(r)
	bk.SetLive(0, 1)
	r.Append(0, 2, nil)
	if !bk.Compact(func(idle int, gen int64) bool {
		if idle != 1 || gen != 2 {
			t.Fatalf("compact args idle %d gen %d", idle, gen)
		}
		return r.Append(idle, 2, nil)
	}) {
		t.Fatal("compact failed")
	}
	if bk.Live() != 1 || bk.Gen() != 2 || r.Len(0) != 0 {
		t.Fatalf("live %d gen %d oldLen %d", bk.Live(), bk.Gen(), r.Len(0))
	}
	pw.FailAfterWrites(0)
	if bk.Compact(func(idle int, gen int64) bool { return r.Append(idle, 2, nil) }) {
		t.Fatal("compact claimed success under dying power")
	}
	if bk.Live() != 1 || bk.Gen() != 2 {
		t.Fatal("failed compact moved the live bank")
	}
}

func TestFileMediumSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []uint16{0xBEEF, 0x1234, 0xFFFF} {
		if err := med.Append(i%2, []uint16{w}); err != nil {
			t.Fatal(err)
		}
	}
	if err := med.Erase(1); err != nil {
		t.Fatal(err)
	}
	if err := med.Append(1, []uint16{0x5678}); err != nil {
		t.Fatal(err)
	}
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}

	if n := CountFileBanks(dir); n != 2 {
		t.Fatalf("CountFileBanks = %d, want 2", n)
	}
	med2, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if w := med2.Words(0); len(w) != 2 || w[0] != 0xBEEF || w[1] != 0xFFFF {
		t.Fatalf("bank 0 reopened as %v", w)
	}
	if w := med2.Words(1); len(w) != 1 || w[0] != 0x5678 {
		t.Fatalf("bank 1 reopened as %v (erase must persist)", w)
	}
}

func TestFileMediumTrimsTornWord(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	med.Append(0, []uint16{0xAAAA})
	med.Close()
	// Simulate a kill between the two bytes of the next word write.
	f, err := os.OpenFile(filepath.Join(dir, "bank-0000.nvm"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xBB})
	f.Close()
	med2, err := OpenFileMedium(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if w := med2.Words(0); len(w) != 1 || w[0] != 0xAAAA {
		t.Fatalf("torn word not trimmed: %v", w)
	}
}

// TestFileMediumConcurrentBanks appends word runs to distinct banks
// of one file medium from concurrent goroutines, as the collector's
// shards do, then reopens it: each bank's encode buffer must be its
// own (go test -race catches a shared one).
func TestFileMediumConcurrentBanks(t *testing.T) {
	const banks, runs = 8, 64
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, banks)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]uint16, banks)
	var wg sync.WaitGroup
	for b := 0; b < banks; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				ws := make([]uint16, 1+(b+i)%19)
				for k := range ws {
					ws[k] = uint16(b<<12 | i<<5 | k)
				}
				if err := med.Append(b, ws); err != nil {
					t.Error(err)
					return
				}
				want[b] = append(want[b], ws...)
			}
		}(b)
	}
	wg.Wait()
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}
	med2, err := OpenFileMedium(dir, banks)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	for b := 0; b < banks; b++ {
		got := med2.Words(b)
		if len(got) != len(want[b]) {
			t.Fatalf("bank %d reopened with %d words, want %d", b, len(got), len(want[b]))
		}
		for i := range got {
			if got[i] != want[b][i] {
				t.Fatalf("bank %d word %d = %#04x, want %#04x", b, i, got[i], want[b][i])
			}
		}
	}
}

// BenchmarkNVMPut is the engine's hot-path guard: one record append
// on the in-memory medium must stay allocation-free (CI greps the
// 0 allocs/op line), since both journals' charge/admission paths sit
// directly on it.
func BenchmarkNVMPut(b *testing.B) {
	r := NewRegion(NewMemMedium(1), NewPower(), testLayout())
	payload := Enc64(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Append(0, 1, payload[:]) {
			b.Fatal("append failed")
		}
		if r.Len(0) >= 1<<12 {
			r.Erase(0)
		}
	}
}
