package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ulpdp/internal/collector"
	"ulpdp/internal/core"
	"ulpdp/internal/dpbox"
	"ulpdp/internal/laplace"
	"ulpdp/internal/nvm"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// Analyzer geometries of cmd/dpbench's micro-benchmarks, so the
// analyzer rows compare with the ROADMAP baseline table.
var (
	benchPar      = core.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}
	benchParLarge = core.Params{Lo: 0, Hi: 20, Eps: 0.5, Bu: 20, By: 16, Delta: 20.0 / 512}
	// boxPar is the fleet's DP-Box shape: a Bu 12, By 10 box
	// configured with Configure(1, 0, 16) (ε = 0.5, Δ = 1).
	boxPar = core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}
)

// sink keeps timed results alive so the compiler cannot drop a call.
var sink any

// batches is how many batches an isolated timing takes; the median
// batch is reported. slowBatches serves the timings whose every batch
// first fills a whole checkpoint store.
const (
	batches     = 15
	slowBatches = 5
)

// batchTarget is the calibrated length of one batch of a stateless
// call.
const batchTarget = 20 * time.Millisecond

// perCallNs times a stateless call in batches calibrated to about
// batchTarget and returns the median batch's nanoseconds per call.
func (e *env) perCallNs(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= batchTarget/4 || n >= 1<<26 {
			n = max(1, int(float64(n)*float64(batchTarget)/float64(max(d, 1))))
			break
		}
		n *= 2
	}
	return e.medianBatch(batches, func() (time.Duration, int, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0), n, nil
	})
}

// medianBatch runs count batches of a stateful measurement — each batch
// does its own untimed set-up and returns its timed duration and
// operation count — and returns the median batch's nanoseconds per
// operation. Each measurement counts as one attempted operation; a
// batch error fails it and yields 0.
func (e *env) medianBatch(count int, batch func() (time.Duration, int, error)) float64 {
	e.attempted++
	var xs []float64
	for b := 0; b < count; b++ {
		runtime.GC()
		d, n, err := batch()
		if err != nil {
			e.fail("layer timing: %v", err)
			return 0
		}
		xs = append(xs, float64(d.Nanoseconds())/float64(n))
	}
	return median(xs)
}

// isolated holds the isolated per-call costs the pipeline sum needs.
type isolated struct {
	noiseValueNs     float64 // dpbox.NoiseValueSeq, in-memory journal
	journalWordsOp   float64 // budget-journal words one NoiseValueSeq writes
	memAppendNs      float64 // nvm Region.Append of one 6-word record, MemMedium
	fileAppendNs     float64 // the same on FileMedium
	recoverNs        float64 // dpbox.Recover after four reports
	colRecoverNs     float64 // collector.Recover of a full fleet-nvm store
	sendRecvNs       float64 // one frame through a lossless link
	ingestNs         float64 // one report through a volatile collector, ACK included
	ingestDurableNs  float64 // the same with checkpointing on an in-memory store
	appendWordsPerOp float64 // words one Region.Append writes
}

// layerSweep times each layer's public calls in isolation and records
// them as per-layer metrics. A call that returns an error or a wrong
// answer fails the run.
func layerSweep(e *env) (isolated, error) {
	var iso isolated

	// core and laplace: analyzer build and certification on the
	// dpbench geometries, the exact PMF, and noising at the fleet's
	// box shape.
	thDefault, err := core.ThresholdingThreshold(benchPar, 2)
	if err != nil {
		return iso, err
	}
	thLarge, err := core.ThresholdingThreshold(benchParLarge, 2)
	if err != nil {
		return iso, err
	}
	anDefault, anLarge := core.NewAnalyzer(benchPar), core.NewAnalyzer(benchParLarge)
	e.set("core.analyzer_build_us", e.perCallNs(func() { sink = core.NewAnalyzer(benchPar) })/1e3, "us")
	e.set("core.analyzer_certify_us", e.perCallNs(func() {
		if anDefault.ThresholdingLoss(thDefault).Infinite {
			e.fail("core: default geometry certified infinite loss")
		}
	})/1e3, "us")
	e.set("core.analyzer_certify_large_us", e.perCallNs(func() {
		if anLarge.ThresholdingLoss(thLarge).Infinite {
			e.fail("core: large geometry certified infinite loss")
		}
	})/1e3, "us")
	dist := laplace.NewDist(benchPar.FxP())
	e.set("laplace.pmf_us", e.perCallNs(func() { sink, _ = dist.PMF() })/1e3, "us")
	thBox, err := core.ThresholdingThreshold(boxPar, 2)
	if err != nil {
		return iso, err
	}
	mech, err := core.NewThresholding(boxPar, thBox, nil, urng.NewTaus88(1))
	if err != nil {
		return iso, err
	}
	e.set("core.noise_ns", e.perCallNs(func() { sink = mech.Noise(5) }), "ns")

	// dpbox + nvm: one sequence-labelled noising transaction on a
	// fresh in-memory journal (the fleet node's per-report box work),
	// recovery after a crash every four reports (the fleet crash
	// schedule), and raw record appends on both media.
	const noiseOps = 4096
	var words []float64
	iso.noiseValueNs = e.medianBatch(batches, func() (time.Duration, int, error) {
		box, j, err := newBox(1)
		if err != nil {
			return 0, 0, err
		}
		w0 := j.Writes()
		t0 := time.Now()
		for s := 0; s < noiseOps; s++ {
			if _, err := box.NoiseValueSeq(uint64(s), int64(s%17)); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		words = append(words, float64(j.Writes()-w0)/noiseOps)
		return d, noiseOps, nil
	})
	iso.journalWordsOp = median(words)
	e.set("dpbox.noise_value_ns", iso.noiseValueNs, "ns")

	const recoveries = 32
	iso.recoverNs = e.medianBatch(batches, func() (time.Duration, int, error) {
		box, j, err := newBox(2)
		if err != nil {
			return 0, 0, err
		}
		var d time.Duration
		for r := 0; r < recoveries; r++ {
			for k := 0; k < 4; k++ {
				s := box.NextSeq()
				if _, err := box.NoiseValueSeq(s, int64(s%17)); err != nil {
					return 0, 0, err
				}
			}
			j.Kill()
			t0 := time.Now()
			box, err = dpbox.Recover(boxConfig(uint64(r+3), nil), j)
			d += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if err := box.Configure(1, 0, 16); err != nil {
				return 0, 0, err
			}
		}
		return d, recoveries, nil
	})
	e.set("dpbox.recover_us", iso.recoverNs/1e3, "us")

	lay := nvm.Layout{Salt: nvm.SaltBudget, PayloadLen: func(uint16) int { return 4 }}
	payload := nvm.Enc64(-12345)
	iso.appendWordsPerOp = float64(len(payload) + 2)
	const memAppends = 1 << 16
	iso.memAppendNs = e.medianBatch(batches, func() (time.Duration, int, error) {
		r := nvm.NewRegion(nvm.NewMemMedium(1), nvm.NewPower(), lay)
		t0 := time.Now()
		for i := 0; i < memAppends; i++ {
			if !r.Append(0, 1, payload[:]) {
				return 0, 0, fmt.Errorf("nvm: in-memory append failed")
			}
		}
		return time.Since(t0), memAppends, nil
	})
	e.set("nvm.mem_append_ns", iso.memAppendNs, "ns")
	const fileAppends = 2048
	iso.fileAppendNs = e.medianBatch(batches, func() (time.Duration, int, error) {
		dir, err := os.MkdirTemp(e.workdir, "nvm-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		med, err := nvm.OpenFileMedium(dir, 1)
		if err != nil {
			return 0, 0, err
		}
		defer med.Close()
		r := nvm.NewRegion(med, nvm.NewPower(), lay)
		t0 := time.Now()
		for i := 0; i < fileAppends; i++ {
			if !r.Append(0, 1, payload[:]) {
				return 0, 0, fmt.Errorf("nvm: file append failed")
			}
		}
		return time.Since(t0), fileAppends, nil
	})
	e.set("nvm.file_append_ns", iso.fileAppendNs, "ns")

	// transport: the frame codec alone, then one frame through a
	// lossless link (encode, Fletcher, ring, decode).
	pkt := transport.Packet{Kind: transport.KindReport, Node: 7, Seq: 1 << 20, Value: -42}
	e.set("transport.marshal_ns", e.perCallNs(func() { sink = transport.Marshal(pkt) }), "ns")
	wire := transport.Marshal(pkt)
	e.set("transport.unmarshal_ns", e.perCallNs(func() {
		if q, err := transport.Unmarshal(wire); err != nil || q != pkt {
			e.fail("transport: unmarshal returned %+v, %v", q, err)
		}
	}), "ns")
	link := transport.NewLink(transport.LinkConfig{QueueCap: 256})
	up, down := link.NodeEnd(), link.CollectorEnd()
	iso.sendRecvNs = e.perCallNs(func() {
		up.Send(pkt)
		if q, ok := down.TryRecv(); !ok || q != pkt {
			e.fail("transport: lossless link delivered %+v (ok=%v)", q, ok)
		}
	})
	e.set("transport.send_recv_ns", iso.sendRecvNs, "ns")

	// collector: ACK-clocked ingest at 1024 nodes, volatile and
	// durable, and recovery of a file-backed store holding a full
	// fleet-nvm run's admissions.
	iso.ingestNs = e.medianBatch(batches, func() (time.Duration, int, error) {
		return ingest(collector.New(colConfig()), 1024, 64)
	})
	e.set("collector.ingest_ns", iso.ingestNs, "ns")
	iso.ingestDurableNs = e.medianBatch(batches, func() (time.Duration, int, error) {
		col, err := collector.NewDurable(colConfig(), collector.NewStore(nvmSpec.cfg.Shards))
		if err != nil {
			return 0, 0, err
		}
		return ingest(col, 1024, 64)
	})
	e.set("collector.ingest_durable_ns", iso.ingestDurableNs, "ns")
	iso.colRecoverNs = e.medianBatch(slowBatches, func() (time.Duration, int, error) {
		return collectorRecovery(e.workdir)
	})
	e.set("collector.recover_ms", iso.colRecoverNs/1e6, "ms")
	return iso, nil
}

// boxConfig mirrors the fleet's DP-Box shape.
func boxConfig(seed uint64, j *dpbox.Journal) dpbox.Config {
	return dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(seed),
		Journal:     j,
	}
}

// newBox builds an initialized, configured fleet-shaped DP-Box on a
// fresh in-memory journal.
func newBox(seed uint64) (*dpbox.DPBox, *dpbox.Journal, error) {
	j := dpbox.NewJournal()
	box, err := dpbox.New(boxConfig(seed, j))
	if err != nil {
		return nil, nil, err
	}
	if err := box.Initialize(1e6, 0); err != nil {
		return nil, nil, err
	}
	if err := box.Configure(1, 0, 16); err != nil {
		return nil, nil, err
	}
	return box, j, nil
}

// colConfig is the collector configuration of the isolated timings:
// the workloads' shard count, no breaker trips, no idle ticks.
func colConfig() collector.Config {
	return collector.Config{
		BreakerThreshold: 1 << 30,
		PollTimeout:      time.Hour,
		Shards:           nvmSpec.cfg.Shards,
	}
}

// ingest drives nodes×reports reports round-robin into col over
// lossless links, ACK-clocked like the collector's own benchmark (at
// most maxInFlight outstanding, every ACK drained), waits until all
// are recorded, closes col, and returns the time from the first send
// to the last record.
func ingest(col *collector.Collector, nodes, reports int) (time.Duration, int, error) {
	const maxInFlight = 4096
	defer col.Close()
	ends := make([]*transport.Endpoint, nodes)
	for i := range ends {
		link := transport.NewLink(transport.LinkConfig{QueueCap: 256})
		if err := col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
			return 0, 0, err
		}
		ends[i] = link.NodeEnd()
	}
	total := nodes * reports
	t0 := time.Now()
	for i := 0; i < total; i++ {
		n := i % nodes
		ends[n].Send(transport.Packet{
			Kind: transport.KindReport, Node: transport.NodeID(n),
			Seq: uint64(i / nodes), Value: int64(i),
		})
		for {
			if _, ok := ends[n].TryRecv(); !ok {
				break
			}
		}
		if (i+1)%maxInFlight == 0 {
			for col.Stats().Accepted+maxInFlight < uint64(i+1) {
				runtime.Gosched()
			}
		}
	}
	for col.Stats().Accepted < uint64(total) {
		runtime.Gosched()
	}
	d := time.Since(t0)
	if st := col.Stats(); st.Accepted != uint64(total) || st.Duplicates != 0 {
		return 0, 0, fmt.Errorf("collector: ingest accounting drifted: %+v for %d sends", st, total)
	}
	return d, total, nil
}

// collectorRecovery fills a file-backed checkpoint store with a
// fleet-nvm-sized run (1024 nodes × 32 reports), closes the collector
// and times one collector.Recover.
func collectorRecovery(workdir string) (time.Duration, int, error) {
	dir, err := os.MkdirTemp(workdir, "nvm-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	store, err := collector.OpenStore(dir, nvmSpec.cfg.Shards)
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	col, err := collector.NewDurable(colConfig(), store)
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := ingest(col, nvmSpec.cfg.Nodes, nvmSpec.cfg.Reports); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	rec, err := collector.Recover(colConfig(), store)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	want := uint64(nvmSpec.cfg.Nodes * nvmSpec.cfg.Reports)
	agg := rec.Aggregate()
	rec.Close()
	if uint64(agg.Reports) != want {
		return 0, 0, fmt.Errorf("collector: recovered %d reports, want %d", agg.Reports, want)
	}
	return d, 1, nil
}
