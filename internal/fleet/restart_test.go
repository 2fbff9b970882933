package fleet

import (
	"os"
	"path/filepath"
	"testing"

	"ulpdp/internal/fault"
)

// TestFleetRestartResumes is the in-process restart-survival check:
// a fleet run leaves its durable state (collector checkpoints + node
// budget journals) under an NVM directory, a second run over the same
// directory with a higher report target must recover every ledger,
// resume the sequence numbering where the first run stopped, and end
// with exactly-once accounting over the union of both runs' reports.
func TestFleetRestartResumes(t *testing.T) {
	dir := t.TempDir()
	seed := gridSeed(t)
	link := fault.LinkProfile{Drop: 0.2, Duplicate: 0.2}

	first, err := Run(Config{Nodes: 3, Reports: 3, Seed: seed, Link: link, NVMDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed {
		t.Fatal("fresh directory reported Resumed")
	}
	if len(first.Violations) != 0 {
		t.Fatalf("first run violations: %v", first.Violations)
	}

	// "Restart": a brand-new process image over the same directory.
	// The report target grows, so each node delivers seqs 3..5 after
	// re-ACKing its resumed tail.
	second, err := Run(Config{Nodes: 3, Reports: 6, Seed: seed, Link: link, NVMDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Resumed {
		t.Fatal("second run over prior state did not report Resumed")
	}
	if len(second.Violations) != 0 {
		t.Fatalf("second run violations: %v", second.Violations)
	}
	for i, nr := range second.Nodes {
		if len(nr.Recorded) != 6 || len(nr.Released) != 6 {
			t.Fatalf("node %d after restart: %d recorded / %d released, want 6/6", i, len(nr.Recorded), len(nr.Released))
		}
	}

	// The recovered first-run releases must re-ACK bit-exactly: the
	// values the first run's journals bound to seqs 0..2 are exactly
	// what the restarted collector holds for them.
	for i := range first.Nodes {
		for seq, rel := range first.Nodes[i].Released {
			got, ok := second.Nodes[i].Recorded[seq]
			if !ok {
				t.Fatalf("node %d seq %d: first-run release missing after restart", i, seq)
			}
			if got != rel.Value {
				t.Fatalf("node %d seq %d: restarted collector holds %d, first run released %d", i, seq, got, rel.Value)
			}
		}
	}

	// Idempotent restart: running again with the same target delivers
	// nothing new and violates nothing.
	third, err := Run(Config{Nodes: 3, Reports: 6, Seed: seed, Link: link, NVMDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Resumed {
		t.Fatal("third run did not report Resumed")
	}
	if len(third.Violations) != 0 {
		t.Fatalf("third run violations: %v", third.Violations)
	}
}

// TestFleetNVMLayout: one run leaves exactly two media, NVMDir/nodes
// and NVMDir/collector, and a rerun refuses a directory written for
// another fleet size or in the per-node-directory layout.
func TestFleetNVMLayout(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(Config{Nodes: 3, Reports: 2, Seed: 1, NVMDir: dir}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "collector" || names[1] != "nodes" {
		t.Fatalf("NVMDir holds %v, want [collector nodes]", names)
	}
	if _, err := Run(Config{Nodes: 4, Reports: 2, Seed: 1, NVMDir: dir}); err == nil {
		t.Error("a 4-node run accepted a 3-node NVMDir")
	}

	legacy := t.TempDir()
	if err := os.Mkdir(filepath.Join(legacy, "node-0000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Nodes: 1, Reports: 1, Seed: 1, NVMDir: legacy}); err == nil {
		t.Error("a run accepted an NVMDir holding node-0000/")
	}
}

// TestFleetResumePastWindow resumes a run whose nodes each released
// more than the DP-Box's 64-entry window. The first-noising record of
// the resumed run can only be seeded from the recovered window, so the
// exactly-once check covers releases from the window's oldest seq on,
// while still requiring every one of the Reports distinct values.
func TestFleetResumePastWindow(t *testing.T) {
	dir := t.TempDir()
	first, err := Run(Config{Nodes: 2, Reports: 100, Seed: 3, NVMDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Violations) != 0 {
		t.Fatalf("first run violations: %v", first.Violations)
	}
	cfg := Config{Nodes: 2, Reports: 120, Seed: 3, NVMDir: dir}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Resumed || len(second.Violations) != 0 {
		t.Fatalf("resumed run: Resumed=%v, violations %v", second.Resumed, second.Violations)
	}
	for i, nr := range second.Nodes {
		if nr.OracleFrom == 0 || nr.OracleFrom > 100-1 {
			t.Fatalf("node %d: oracle covers seqs from %d, want a window that starts past 0 and holds seq 99", i, nr.OracleFrom)
		}
		for seq, v := range first.Nodes[i].Recorded {
			if got, ok := nr.Recorded[seq]; !ok || got != v {
				t.Fatalf("node %d seq %d: resumed collector holds %d (ok=%v), first run recorded %d", i, seq, got, ok, v)
			}
		}
	}

	// The relaxed range must not excuse a missing value.
	delete(second.Nodes[0].Recorded, 0)
	if v := CheckExactlyOnce(cfg, second); len(v) == 0 {
		t.Fatal("a resumed run missing seq 0 passed the exactly-once check")
	}
}
