// Benchmark-regression tooling: `dpbench -benchjson DIR` runs the
// analyzer, noising, and fleet-datapath benchmarks through
// testing.Benchmark and writes machine-readable BENCH_analyzer.json,
// BENCH_noise.json, and BENCH_fleet.json files, giving future changes
// a perf trajectory to compare against:
//
//	dpbench -benchjson .            # writes ./BENCH_*.json
//	jq '.benchmarks[].ns_per_op' BENCH_fleet.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ulpdp/internal/collector"
	"ulpdp/internal/core"
	"ulpdp/internal/fault"
	"ulpdp/internal/fleet"
	"ulpdp/internal/laplace"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// benchPar mirrors the root bench_test.go micro-benchmark geometry;
// benchParLarge is the wide-grid analyzer geometry.
var (
	benchPar      = core.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}
	benchParLarge = core.Params{Lo: 0, Hi: 20, Eps: 0.5, Bu: 20, By: 16, Delta: 20.0 / 512}
)

// BenchResult is one benchmark measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchFile is the on-disk schema of one BENCH_*.json file.
type BenchFile struct {
	Suite      string        `json:"suite"`
	GoVersion  string        `json:"go_version"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

func analyzerBenches() []namedBench {
	thDefault, err := core.ThresholdingThreshold(benchPar, 2)
	if err != nil {
		panic(err)
	}
	thLarge, err := core.ThresholdingThreshold(benchParLarge, 2)
	if err != nil {
		panic(err)
	}
	anDefault := core.NewAnalyzer(benchPar)
	anLarge := core.NewAnalyzer(benchParLarge)
	return []namedBench{
		{"AnalyzerBuild", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NewAnalyzer(benchPar)
			}
		}},
		{"AnalyzerCachedBuild", func(b *testing.B) {
			core.ResetAnalyzerCache()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.CachedAnalyzer(benchPar)
			}
		}},
		{"AnalyzerCertify", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rep := anDefault.ThresholdingLoss(thDefault); rep.Infinite {
					b.Fatal("certification failed")
				}
			}
		}},
		{"AnalyzerCertifyLarge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rep := anLarge.ThresholdingLoss(thLarge); rep.Infinite {
					b.Fatal("certification failed")
				}
			}
		}},
		{"AnalyzerCertifyResampling", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rep := anDefault.ResamplingLoss(thDefault); rep.Infinite {
					b.Fatal("certification failed")
				}
			}
		}},
		{"AnalyzerProfile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				anDefault.ThresholdingLossProfile(thDefault)
			}
		}},
		{"AnalyzerSegments", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				anDefault.Segments(thDefault, []float64{1.25, 1.5, 1.75})
			}
		}},
		{"ExactPMF", func(b *testing.B) {
			d := laplace.NewDist(benchPar.FxP())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.PMF()
			}
		}},
	}
}

func noiseBenches() []namedBench {
	thT, err := core.ThresholdingThreshold(benchPar, 2)
	if err != nil {
		panic(err)
	}
	thR, err := core.ResamplingThreshold(benchPar, 2)
	if err != nil {
		panic(err)
	}
	return []namedBench{
		{"NoiseIdeal", func(b *testing.B) {
			m, err := core.NewIdealLaplace(benchPar, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Noise(5)
			}
		}},
		{"NoiseBaselineCordic", func(b *testing.B) {
			m, err := core.NewBaseline(benchPar, nil, urng.NewTaus88(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Noise(5)
			}
		}},
		{"NoiseThresholding", func(b *testing.B) {
			m, err := core.NewThresholding(benchPar, thT, nil, urng.NewTaus88(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Noise(5)
			}
		}},
		{"NoiseResampling", func(b *testing.B) {
			m, err := core.NewResampling(benchPar, thR, nil, urng.NewTaus88(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Noise(10)
			}
		}},
	}
}

// fleetBenches measures the fleet datapath: raw sharded-collector
// ingest at 1k attached nodes (the ISSUE's ≥10×-over-single-processor
// scale point), and complete end-to-end fleet runs, lossless, under
// chaos, and on file-backed NVM with node crashes.
func fleetBenches() []namedBench {
	return []namedBench{
		{"CollectorIngest1k", func(b *testing.B) {
			const nodes, inFlight = 1024, 4096
			col := collector.New(collector.Config{
				BreakerThreshold: 1 << 30,
				PollTimeout:      time.Hour,
			})
			defer col.Close()
			ends := make([]*transport.Endpoint, nodes)
			for i := 0; i < nodes; i++ {
				link := transport.NewLink(transport.LinkConfig{QueueCap: 256})
				if err := col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
					b.Fatal(err)
				}
				ends[i] = link.NodeEnd()
			}
			seqs := make([]uint64, nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := i % nodes
				ends[n].Send(transport.Packet{
					Kind: transport.KindReport, Node: transport.NodeID(n),
					Seq: seqs[n], Value: int64(i),
				})
				seqs[n]++
				for {
					if _, ok := ends[n].TryRecv(); !ok {
						break
					}
				}
				if (i+1)%inFlight == 0 {
					for col.Stats().Accepted+inFlight < uint64(i+1) {
						runtime.Gosched()
					}
				}
			}
			for col.Stats().Accepted < uint64(b.N) {
				runtime.Gosched()
			}
		}},
		{"FleetLossless256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(fleet.Config{
					Nodes: 256, Reports: 4, Seed: 42,
					BreakerThreshold: 1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatalf("violations: %v", res.Violations)
				}
			}
		}},
		{"FleetChaos256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(fleet.Config{
					Nodes: 256, Reports: 4, Seed: 42,
					BreakerThreshold: 1 << 20,
					Link:             fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatalf("violations: %v", res.Violations)
				}
			}
		}},
		{"FleetNVM256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(fleet.Config{
					Nodes: 256, Reports: 8, Seed: 42,
					BreakerThreshold: 1 << 20,
					CrashEvery:       4,
					NVMDir:           b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatalf("violations: %v", res.Violations)
				}
			}
		}},
	}
}

func runSuite(suite string, benches []namedBench) BenchFile {
	out := BenchFile{
		Suite:     suite,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, nb := range benches {
		r := testing.Benchmark(nb.fn)
		out.Benchmarks = append(out.Benchmarks, BenchResult{
			Name:        nb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "bench %-26s %12.1f ns/op (%d iters)\n",
			nb.name, float64(r.T.Nanoseconds())/float64(r.N), r.N)
	}
	return out
}

// writeBenchJSON runs the micro-benchmark suites and writes
// BENCH_analyzer.json, BENCH_noise.json, and BENCH_fleet.json into
// dir.
func writeBenchJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suites := map[string]BenchFile{
		"BENCH_analyzer.json": runSuite("analyzer", analyzerBenches()),
		"BENCH_noise.json":    runSuite("noise", noiseBenches()),
		"BENCH_fleet.json":    runSuite("fleet", fleetBenches()),
	}
	for name, f := range suites {
		buf, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	return nil
}
