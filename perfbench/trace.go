package main

import (
	"fmt"
	"os"
	"runtime"

	"ulpdp/internal/obs"
)

// tracePasses is how many untraced and how many traced fleet runs the
// per-layer sweep makes.
const tracePasses = 3

// transition is one traced per-layer latency: the time between two
// stamps of a report's span.
type transition struct {
	metric   string
	from, to func(v obs.SpanView) int64 // stamp in ns; 0 = absent
}

// stamp returns a fixed stage's first-occurrence time.
func stamp(st obs.Stage) func(obs.SpanView) int64 {
	return func(v obs.SpanView) int64 { return v.StampNs[st] }
}

// nextAfter returns the first stamped chain stage after st — the
// checkpoint commit on a durable collector, the ACK on a volatile one.
func nextAfter(st obs.Stage) func(obs.SpanView) int64 {
	return func(v obs.SpanView) int64 {
		for s := st + 1; s <= obs.StageAck; s++ {
			if v.StampNs[s] != 0 {
				return v.StampNs[s]
			}
		}
		return 0
	}
}

// lastBefore returns the last stamped chain stage before st.
func lastBefore(st obs.Stage) func(obs.SpanView) int64 {
	return func(v obs.SpanView) int64 {
		for s := int(st) - 1; s >= int(obs.StageNoised); s-- {
			if v.StampNs[s] != 0 {
				return v.StampNs[s]
			}
		}
		return 0
	}
}

// transitions are the traced per-layer latencies, each reported as a
// p50 and a p99 pooled over retransmit strata.
var transitions = []transition{
	{"dpbox.noise_journal", stamp(obs.StageNoised), stamp(obs.StageJournal)},
	{"node.journal_tx", stamp(obs.StageJournal), stamp(obs.StageTx)},
	{"transport.tx_rx", stamp(obs.StageTx), stamp(obs.StageLinkRx)},
	{"collector.rx_admit", stamp(obs.StageLinkRx), stamp(obs.StageAdmit)},
	{"collector.admit_commit", stamp(obs.StageAdmit), nextAfter(obs.StageAdmit)},
	{"node.ack_return", lastBefore(obs.StageAck), stamp(obs.StageAck)},
	{"fleet.ack", stamp(obs.StageNoised), stamp(obs.StageAck)},
}

// traceRun is the per-layer sweep of one workload: isolated layer
// timings, the exhibit and dataset timings, and the flight-recorded
// pipeline of the workload's fleet. The exhibit workload drives no
// fleet, so its sweep traces the fleet-lossless configuration.
func traceRun(e *env, spec *fleetSpec) error {
	iso, err := layerSweep(e)
	if err != nil {
		return err
	}
	if err := exhibitSweep(e); err != nil {
		return err
	}
	if spec == nil {
		spec = losslessSpec
	}
	return pipeline(e, spec, iso)
}

// pipeline runs the fleet untraced and then with the telemetry
// registry and flight recorder attached, checks both against the
// lossless reference, and reports the traced latencies, the layer
// counts, the tracing overhead and how much of the per-report CPU the
// isolated layer costs explain.
func pipeline(e *env, s *fleetSpec, iso isolated) error {
	ref, err := referenceDigest(e, s)
	if err != nil {
		return err
	}
	cfg := s.config(e.seed, 0)
	durable := cfg.Durable || len(cfg.CollectorCrashes) > 0 || s.fileNVM
	procs := float64(runtime.GOMAXPROCS(0))

	var plainRate, plainCPU, busy []float64
	for i := 0; i < tracePasses; i++ {
		p, err := s.run(e, cfg)
		if err != nil {
			return err
		}
		check(&e.tally, cfg, p.res, ref)
		n := float64(max(p.reports(), 1))
		plainRate = append(plainRate, n/p.wall.Seconds())
		plainCPU = append(plainCPU, p.cpu.Seconds()*1e6/n)
		busy = append(busy, p.cpu.Seconds()/(p.wall.Seconds()*procs))
	}

	var (
		tracedRate []float64
		lat        = make([][]float64, len(transitions))
		spans      int
		tx         uint64
		counts     struct {
			dropped, rejected, dups, idleTicks, ckWords, recoveries, failClosed, redeliveries, crashes float64
		}
	)
	for i := 0; i < tracePasses; i++ {
		c := cfg
		c.Obs = obs.NewRegistry()
		c.Flight = obs.NewFlightRecorder(2 * c.Nodes * c.Reports)
		p, err := s.run(e, c)
		if err != nil {
			return err
		}
		check(&e.tally, c, p.res, ref)
		fs := p.res.Flight
		if fs == nil || c.Flight.Dropped() != 0 {
			e.fail("flight recorder dropped spans (capacity %d)", c.Flight.Capacity())
			continue
		}
		for _, v := range obs.ValidateFlight(fs, true, durable) {
			e.fail("%s", v)
		}
		if i == 0 {
			printAttribution(fs)
		}
		tracedRate = append(tracedRate, float64(max(p.reports(), 1))/p.wall.Seconds())
		for _, v := range fs.Spans {
			if !v.Acked() {
				continue
			}
			spans++
			tx += uint64(v.Hits[obs.StageTx])
			for k, tr := range transitions {
				if a, b := tr.from(v), tr.to(v); a != 0 && b != 0 {
					lat[k] = append(lat[k], float64(b-a)/1e3)
				}
			}
		}
		r := p.res
		counts.dropped += float64(r.Link.Dropped)
		counts.rejected += float64(r.Link.RejectedCorrupt)
		counts.dups += float64(r.Collector.Duplicates)
		counts.idleTicks += float64(r.Collector.Timeouts)
		counts.ckWords += float64(r.CheckpointWords)
		counts.recoveries += float64(r.CollectorRecoveries)
		counts.failClosed += float64(r.Collector.FailClosed)
		for _, nr := range r.Nodes {
			counts.redeliveries += float64(nr.Redeliveries)
			counts.crashes += float64(nr.Crashes)
		}
	}
	if len(tracedRate) == 0 || spans == 0 {
		e.fail("no complete traced run")
		return nil
	}

	for k, tr := range transitions {
		if len(lat[k]) == 0 {
			e.fail("traced transition %s never observed", tr.metric)
			continue
		}
		e.set(tr.metric+"_p50_us", quantile(lat[k], 0.50), "us")
		e.set(tr.metric+"_p99_us", quantile(lat[k], 0.99), "us")
	}

	runs := float64(len(tracedRate))
	reports := float64(cfg.Nodes * cfg.Reports)
	txPerReport := float64(tx) / float64(spans)
	ckPerReport := counts.ckWords / runs / reports
	e.set("transport.tx_per_report", txPerReport, "ratio")
	e.set("transport.dropped", counts.dropped/runs, "count")
	e.set("transport.rejected_corrupt", counts.rejected/runs, "count")
	e.set("collector.duplicates_per_report", counts.dups/runs/reports, "ratio")
	e.set("collector.idle_ticks_per_report", counts.idleTicks/runs/reports, "ratio")
	e.set("collector.checkpoint_words_per_report", ckPerReport, "ratio")
	e.set("collector.recoveries", counts.recoveries/runs, "count")
	e.set("collector.fail_closed", counts.failClosed/runs, "count")
	e.set("node.redeliveries", counts.redeliveries/runs, "count")
	e.set("node.crashes", counts.crashes/runs, "count")
	e.set("fleet.cpu_us_per_report", median(plainCPU), "us")
	e.set("fleet.trace_overhead", median(plainRate)/median(tracedRate), "ratio")
	e.set("fleet.cpu_busy_share", median(busy), "ratio")

	// The isolated per-report costs along the report's path: one
	// noising transaction, one ACK-clocked collector ingest (link
	// round trip, shard admit and, on durable collectors, the
	// checkpoint), the extra link round trips of retransmissions, the
	// amortized node and collector recoveries, and — on file-backed
	// NVM — the file surcharge on every journal and checkpoint word.
	sum := iso.noiseValueNs + iso.ingestNs
	if durable {
		sum = iso.noiseValueNs + iso.ingestDurableNs
	}
	sum += (txPerReport - 1) * 2 * iso.sendRecvNs
	if cfg.CrashEvery > 0 {
		sum += iso.recoverNs / float64(cfg.CrashEvery)
	}
	sum += counts.recoveries / runs * iso.colRecoverNs / reports
	if s.fileNVM {
		perWord := (iso.fileAppendNs - iso.memAppendNs) / iso.appendWordsPerOp
		sum += (iso.journalWordsOp + ckPerReport) * perWord
	}
	e.set("fleet.layers_sum_share", sum/1e3/median(plainCPU), "ratio")
	fmt.Fprintf(os.Stderr, "perfbench: untraced %.0f reports/s, %.2f us CPU/report; isolated layers sum to %.2f us/report\n",
		median(plainRate), median(plainCPU), sum/1e3)
	return nil
}

// printAttribution writes the recorder's stratified per-transition
// table (obs.Attribute) to stderr.
func printAttribution(fs *obs.FlightSnapshot) {
	fmt.Fprintf(os.Stderr, "perfbench: %-40s %-7s %9s %9s %9s %9s\n", "transition", "stratum", "count", "p50_us", "p95_us", "p99_us")
	for _, r := range obs.Attribute(fs) {
		fmt.Fprintf(os.Stderr, "perfbench: %-40s %-7s %9d %9.1f %9.1f %9.1f\n", r.Transition, r.Stratum, r.Count, r.P50, r.P95, r.P99)
	}
}
