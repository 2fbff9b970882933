package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// hashFloats is the SHA-256 over the little-endian float64 bits of xs.
func hashFloats(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins every catalog dataset bit for bit, so a
// sampler change that alters any experiment's input fails here.
func TestGenerateGolden(t *testing.T) {
	golden := []struct {
		name string
		seed uint64
		hash string
	}{
		{"Auto-MPG", 1, "aa9369a35eba1a4913eb11c0071493a2a0f2f1a198dec98f170648bf07f7abe9"},
		{"Robot Sensors", 1, "75fdc4b3b7ea82a0a6f60a187419fda0668f8bb1f42afc07b883737b194b43d0"},
		{"Statlog (Heart)", 1, "d5866c0c5c3fc4d3848408a508f556f26d6ced9d152c454db2910348b77c695d"},
		{"Human Activity", 1, "b5385d8f61dd52503d2ab4b5954dd406f4121c20749cfdaa70fdd61701fe0069"},
		{"Localization for Person", 1, "b0ec2278c94958c087a2b397f8dcf4ac96a071e5fb7d5a06dc817f96a9ac667c"},
		{"UJIIndoorLoc", 1, "5b997a31ba1dc370469c5a61daa62f40104f6c0e01a3bdb05514a669a2a97baa"},
		{"Postural Transitions", 1, "de6b72ac766af2950e34ef467c0b56afddab8965560491d612bca52a0b170264"},
		{"Auto-MPG", 2018, "7cb268c92c01e717572a5943a14cf5f1481ad2262f7099c451ae55d3aa248546"},
		{"Robot Sensors", 2018, "16e50a27ec853f8aae87912059a514770e7c825108c5b10ba0efc08c936fe2fa"},
		{"Statlog (Heart)", 2018, "cabc421012350ddb254991a6dd4cd78b98331fa421d894f832b44cc1fef5afc2"},
		{"Human Activity", 2018, "0741ed778fad0436b1417a026df804741cd6d14578b16fa84ccdaeb248cfdd9b"},
		{"Localization for Person", 2018, "4da4a319225d3b0a980135f43910b9f1af6bfa2d5e10b64bf2586d9990c55eaf"},
		{"UJIIndoorLoc", 2018, "415a26e06cc84dc542c00ee10fa214df64f7f03db5fbd6d2ce891aebdcc9d13f"},
		{"Postural Transitions", 2018, "65fc2bf92cd2bd2073144cf9bf31548ff902c885e75662c2d4fbcf59581753e4"},
	}
	if want := 2 * len(Catalog()); len(golden) != want {
		t.Fatalf("%d pins, want %d (every catalog entry at two seeds)", len(golden), want)
	}
	for _, g := range golden {
		m, err := ByName(g.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashFloats(m.Generate(g.seed)); got != g.hash {
			t.Errorf("%s seed %d: hash %s, want %s", g.name, g.seed, got, g.hash)
		}
	}
}

// TestGenerateNIsPrefix checks that GenerateN(n) is exactly the first
// n entries of Generate, which lets callers that cap a dataset skip
// generating the rows they would discard. Every n is capped at the
// catalog size, as those callers cap it.
func TestGenerateNIsPrefix(t *testing.T) {
	const seed = 2018
	for _, m := range Catalog() {
		full := m.Generate(seed)
		for _, n := range []int{1, min(1500, m.Entries), min(20000, m.Entries)} {
			got := m.GenerateN(n, seed)
			if len(got) != n {
				t.Fatalf("%s: GenerateN(%d) has %d entries", m.Name, n, len(got))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(full[i]) {
					t.Fatalf("%s: GenerateN(%d)[%d] = %g, Generate[%d] = %g",
						m.Name, n, i, got[i], i, full[i])
				}
			}
		}
	}
}

// TestSkewedLogNormalRejectionIsBounded feeds the lognormal sampler a
// Meta that Validate accepts but whose every draw misses the range: a
// NaN mean passes Validate's range comparisons and makes every solved
// parameter NaN. (With finite moments more than half the lognormal's
// mass lies below its mean, which is at most Max, so only non-finite
// parameters can starve the rejection loop.) The sampler must give up
// after its draw cap and return an in-range value instead of spinning.
func TestSkewedLogNormalRejectionIsBounded(t *testing.T) {
	m := Meta{Name: "nan-mean", Entries: 3, Min: 0, Max: 1, Mean: math.NaN(), Std: 0.2,
		Shape: SkewedLogNormal}
	if err := m.Validate(); err != nil {
		t.Fatalf("precondition: Validate rejects the meta: %v", err)
	}
	for i, v := range m.Generate(1) {
		if !(v >= m.Min && v <= m.Max) {
			t.Errorf("sample %d = %g outside [%g, %g]", i, v, m.Min, m.Max)
		}
	}
}
