// Package nvmtest holds the property-test scaffolding shared by every
// package that builds on the internal/nvm engine, so the torn-write
// sweep and the fuzz byte↔word plumbing are written once instead of
// re-grown per journal.
package nvmtest

import (
	"encoding/binary"
	"testing"

	"ulpdp/internal/nvm"
)

// CrashSweep is the torn-write sweep at every word boundary: it runs
// the scripted workload once on an unarmed supply cell (cut == -1) to
// measure its total durable word-write count, then re-runs it once
// per cut point w ∈ [0, total] on a fresh cell armed to kill the
// (w+1)-th write. run must build its journal/store on pw, drive its
// script tolerating power death at any word, and verify its own
// recovery invariant before returning. The baseline pass must write
// at least one word (a sweep over nothing would vacuously pass).
func CrashSweep(t testing.TB, run func(t testing.TB, pw *nvm.Power, cut int)) {
	t.Helper()
	base := nvm.NewPower()
	run(t, base, -1)
	total := int(base.Writes())
	if total == 0 {
		t.Fatalf("nvmtest: baseline sweep pass wrote no words; nothing to sweep")
	}
	for w := 0; w <= total; w++ {
		pw := nvm.NewPower()
		pw.FailAfterWrites(w)
		run(t, pw, w)
	}
}

// CountingMedium wraps a Medium and records the word count of every
// Append: the write-granularity probe for how many medium writes (on
// a file, syscalls) one journal operation costs.
type CountingMedium struct {
	nvm.Medium
	Appends []int
}

// Append records len(ws), then appends through to the wrapped medium.
func (m *CountingMedium) Append(b int, ws []uint16) error {
	m.Appends = append(m.Appends, len(ws))
	return m.Medium.Append(b, ws)
}

// WordsToBytes flattens a word stream little-endian for fuzz corpora.
func WordsToBytes(words []uint16) []byte {
	out := make([]byte, 2*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint16(out[2*i:], w)
	}
	return out
}

// BytesToWords reassembles a fuzz byte string into words, dropping a
// trailing odd byte (a torn word).
func BytesToWords(raw []byte) []uint16 {
	words := make([]uint16, len(raw)/2)
	for i := range words {
		words[i] = binary.LittleEndian.Uint16(raw[2*i:])
	}
	return words
}
