package main

import (
	"time"

	"ulpdp/internal/fault"
	"ulpdp/internal/fleet"
)

// fleetSpec is a fleet workload's load, written out in full so it
// does not rescale with the machine: sizes, the closed-loop client
// count (Workers: each worker drives one node's report loop, sending
// the next report only after the ACK), the collector shard count, the
// link profile and both crash schedules.
type fleetSpec struct {
	cfg fleet.Config
	// fileNVM backs every durable region with nvm.FileMedium under a
	// fresh directory per fleet.Run.
	fileNVM bool
}

// chaosLink is fleetsim's default link profile.
var chaosLink = fault.LinkProfile{Drop: 0.25, Duplicate: 0.15, Reorder: 0.15, Corrupt: 0.05, MaxDelay: 3}

// base is what every fleet workload shares. The breaker threshold is
// set out of reach so a chaos stall never parks a node behind an open
// breaker window, which would turn a timing accident into wall time.
func base(nodes, reports int) fleet.Config {
	return fleet.Config{
		Nodes:            nodes,
		Reports:          reports,
		Workers:          16,
		Shards:           8,
		BreakerThreshold: 1 << 20,
		Deadline:         2 * time.Minute,
	}
}

var (
	losslessSpec = &fleetSpec{cfg: base(4096, 64)}
	chaosSpec    = func() *fleetSpec {
		c := base(1024, 16)
		c.Link = chaosLink
		c.Durable = true
		c.CrashEvery = 4
		return &fleetSpec{cfg: c}
	}()
	nvmSpec = func() *fleetSpec {
		c := base(1024, 32)
		c.CrashEvery = 4
		c.CollectorCrashes = []int{500, 5000, 20000}
		return &fleetSpec{cfg: c, fileNVM: true}
	}()
)

// workloads maps each workload name to its fleet; exhibits has none.
var workloads = map[string]*fleetSpec{
	"exhibits":       nil,
	"fleet-lossless": losslessSpec,
	"fleet-chaos":    chaosSpec,
	"fleet-nvm":      nvmSpec,
}
