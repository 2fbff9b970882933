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
