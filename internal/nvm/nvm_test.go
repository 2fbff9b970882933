package nvm

import (
	"fmt"
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

// TestBatchCutSweep cuts the power at every word of a batch — two
// lone records and a transaction, a compaction's shape — and checks
// that its one medium write leaves exactly the words record-by-record
// writes would have, reporting success only when all of them landed.
func TestBatchCutSweep(t *testing.T) {
	write := func(r *Region) {
		p := Enc64(9)
		r.Append(0, 1, p[:])
		r.Append(0, 3, []uint16{4, 5})
		pair := r.TxnBegin(1, p[:])
		r.Append(0, 3, []uint16{6, 7})
		r.TxnCommit(0, 2, pair)
	}
	ref := NewRegion(NewMemMedium(1), NewPower(), testLayout())
	write(ref)
	clean := ref.Words(0)
	for n := 0; n <= len(clean); n++ {
		pw := NewPower()
		pw.FailAfterWrites(n)
		med := &countingMedium{Medium: NewMemMedium(1)}
		r := NewRegion(med, pw, testLayout())
		intents, commits := &obs.Counter{}, &obs.Counter{}
		r.BindCounters(intents, commits)
		r.BatchBegin()
		write(r)
		if r.Len(0) != 0 {
			t.Fatalf("cut %d: staged words visible before the batch commit", n)
		}
		ok := r.BatchCommit(0)
		got := r.Words(0)
		if ok != (n == len(clean)) || len(got) != n {
			t.Fatalf("cut %d: ok %v, %d words durable", n, ok, len(got))
		}
		for i := range got {
			if got[i] != clean[i] {
				t.Fatalf("cut %d: word %d = %#04x, want %#04x", n, i, got[i], clean[i])
			}
		}
		if n > 0 && med.appends != 1 {
			t.Fatalf("cut %d: batch reached the medium in %d writes", n, med.appends)
		}
		if intents.Value() != 0 || commits.Value() != 0 {
			t.Fatalf("cut %d: batched transaction bumped telemetry", n)
		}
	}
}

// countingMedium counts Append calls.
type countingMedium struct {
	Medium
	appends int
}

func (m *countingMedium) Append(b int, ws []uint16) error {
	m.appends++
	return m.Medium.Append(b, ws)
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

	// The header's bank count wins over the caller's.
	med2, err := OpenFileMedium(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if n := med2.Banks(); n != 2 {
		t.Fatalf("reopened with %d banks, want the header's 2", n)
	}
	if w := med2.Words(0); len(w) != 2 || w[0] != 0xBEEF || w[1] != 0xFFFF {
		t.Fatalf("bank 0 reopened as %v", w)
	}
	if w := med2.Words(1); len(w) != 1 || w[0] != 0x5678 {
		t.Fatalf("bank 1 reopened as %v (erase must persist)", w)
	}
}

// snapshotBanks deep-copies every bank of med.
func snapshotBanks(med Medium) [][]uint16 {
	out := make([][]uint16, med.Banks())
	for b := range out {
		out[b] = append([]uint16{}, med.Words(b)...)
	}
	return out
}

func equalBanks(t *testing.T, what string, med Medium, want [][]uint16) {
	t.Helper()
	if med.Banks() != len(want) {
		t.Fatalf("%s: %d banks, want %d", what, med.Banks(), len(want))
	}
	for b := range want {
		got := med.Words(b)
		if len(got) != len(want[b]) {
			t.Fatalf("%s: bank %d = %v, want %v", what, b, got, want[b])
		}
		for i := range got {
			if got[i] != want[b][i] {
				t.Fatalf("%s: bank %d = %v, want %v", what, b, got, want[b])
			}
		}
	}
}

// TestFileMediumTornFrameSweep writes append and erase frames to
// several banks, then cuts the file at every byte — every place a
// kill could tear a write — and reopens the prefix. Each bank must
// read exactly as it stood after the last complete frame, and an
// append after the reopen must land right after the trimmed tail and
// survive another reopen.
func TestFileMediumTornFrameSweep(t *testing.T) {
	const banks = 3
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, banks)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName)
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// ends[k] is the file size after op k; states[k] the banks then.
	ends := []int64{size()}
	states := [][][]uint16{snapshotBanks(med)}
	ops := []func() error{
		func() error { return med.Append(0, []uint16{0x0101, 0x0102}) },
		func() error { return med.Append(2, []uint16{0x0201}) },
		func() error { return med.Append(0, []uint16{0x0103, 0x0104, 0x0105}) },
		func() error { return med.Erase(0) },
		func() error { return med.Append(1, []uint16{0x0301, 0x0302}) },
		func() error { return med.Append(0, []uint16{0x0106}) },
		func() error { return med.Erase(2) },
		func() error { return med.Append(2, []uint16{0x0202, 0x0203}) },
	}
	for _, op := range ops {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, size())
		states = append(states, snapshotBanks(med))
	}
	med.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		k := -1 // the last op whose frame is whole in the cut
		for k+1 < len(ends) && ends[k+1] <= int64(cut) {
			k++
		}
		want, tail := make([][]uint16, banks), int64(headerLen)
		if k >= 0 {
			want, tail = states[k], ends[k]
		}
		cdir := t.TempDir()
		cpath := filepath.Join(cdir, fileName)
		if err := os.WriteFile(cpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenFileMedium(cdir, banks)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		what := fmt.Sprintf("cut %d", cut)
		equalBanks(t, what, m, want)
		want = snapshotBanks(m)
		w := uint16(0xA000 + cut)
		if err := m.Append(1, []uint16{w}); err != nil {
			t.Fatalf("%s: append after reopen: %v", what, err)
		}
		m.Close()
		fi, err := os.Stat(cpath)
		if err != nil {
			t.Fatal(err)
		}
		if wantSize := tail + frameHdrLen + 2; fi.Size() != wantSize {
			t.Fatalf("%s: file is %d bytes after one append, want %d", what, fi.Size(), wantSize)
		}
		want[1] = append(want[1], w)
		m, err = OpenFileMedium(cdir, banks)
		if err != nil {
			t.Fatalf("%s: second reopen: %v", what, err)
		}
		equalBanks(t, what+" after append", m, want)
		m.Close()
	}
}

// TestFileMediumRefusesForeignFiles: the retired one-file-per-bank
// layout and a file with a bad magic number are errors, not media.
func TestFileMediumRefusesForeignFiles(t *testing.T) {
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "bank-0000.nvm"), []byte{0xAA, 0xAA}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileMedium(legacy, 1); err == nil {
		t.Error("opened a directory holding the one-file-per-bank layout")
	}
	for _, raw := range [][]byte{
		{0x01, 0x02, 0x03, 0x04, 0x01, 0x00, 0x00, 0x00},
		{0x4E, 0x56, 0x00},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileMedium(dir, 1); err == nil {
			t.Errorf("opened a file starting % x", raw)
		}
	}
}

// TestFileMediumFailsClosed: once a frame write fails, no later frame
// may follow the partial one, so every later write errors even if the
// file would take it; a reopen reads the state before the failure.
func TestFileMediumFailsClosed(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Append(0, []uint16{1, 2}); err != nil {
		t.Fatal(err)
	}
	good := med.f
	ro, err := os.Open(good.Name())
	if err != nil {
		t.Fatal(err)
	}
	med.f = ro
	if err := med.Append(1, []uint16{3}); err == nil {
		t.Fatal("write through a read-only handle succeeded")
	}
	med.f = good
	ro.Close()
	if med.Len(1) != 0 {
		t.Fatalf("failed write reached the mirror: bank 1 = %v", med.Words(1))
	}
	if err := med.Append(0, []uint16{4}); err == nil {
		t.Error("append after a failed write succeeded")
	}
	if err := med.Erase(0); err == nil {
		t.Error("erase after a failed write succeeded")
	}
	med.Close()
	med2, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	equalBanks(t, "reopened", med2, [][]uint16{{1, 2}, {}})
}

// TestFileMediumDropBank: a dropped bank frees its mirror and refuses
// writes; the file keeps its words.
func TestFileMediumDropBank(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	med.Append(0, []uint16{7, 8})
	med.Append(1, []uint16{9})
	med.DropBank(0)
	if med.Len(0) != 0 || med.Words(0) != nil {
		t.Fatalf("dropped bank still mirrored: %v", med.Words(0))
	}
	if med.Append(0, []uint16{1}) == nil || med.Erase(0) == nil {
		t.Error("dropped bank accepted a write")
	}
	if err := med.Append(1, []uint16{10}); err != nil {
		t.Fatalf("other bank refused after a drop: %v", err)
	}
	med.Close()
	med2, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	equalBanks(t, "reopened", med2, [][]uint16{{7, 8}, {9, 10}})
}

// TestFileMediumConcurrentBanks appends word runs to, and erases,
// distinct banks of one file medium from concurrent goroutines, as the
// collector's shards and a fleet's node journals do, then reopens it:
// the interleaved frames must replay to each bank's own words (go test
// -race catches unsynchronized frame writes).
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
				if i == runs/2 {
					if err := med.Erase(b); err != nil {
						t.Error(err)
						return
					}
					want[b] = nil
				}
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
