package node

import "ulpdp/internal/obs"

// Metrics is the node agent's slice of the telemetry plane, shared by
// every agent of a fleet. Report latency is not measured here: the
// flight recorder's noised → ACK span is its one source
// (obs.FlightMetrics.LatencyUs).
type Metrics struct {
	Reports     *obs.Counter // reports entered (noised or replayed)
	Resumes     *obs.Counter // post-crash Resume deliveries
	Retransmits *obs.Counter // extra transmissions beyond the first
	Abandoned   *obs.Counter // deliveries that gave up
	BackoffNs   *obs.Counter // total backoff slept, nanoseconds

	// Flight, when non-nil, receives per-report span stamps (noised,
	// tx attempts, ack, degraded, abandoned) keyed by (node, seq).
	// Wired by the fleet; nil keeps every stamp a single nil check.
	Flight *obs.FlightRecorder
}

// NewMetrics registers (or re-binds) the node agent metric schema.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Reports:     r.Counter("node.reports"),
		Resumes:     r.Counter("node.resumes"),
		Retransmits: r.Counter("node.retransmits"),
		Abandoned:   r.Counter("node.abandoned"),
		BackoffNs:   r.Counter("node.backoff_ns"),
	}
}
