package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderSpanLifecycle(t *testing.T) {
	fr := NewFlightRecorder(64)
	r := NewRegistry()
	fr.SetMetrics(NewFlightMetrics(r))

	// A healthy report with one retransmit and a duplicate landing.
	fr.Record(3, 7, StageNoised)
	fr.Record(3, 7, StageJournal)
	fr.Record(3, 7, StageTx)
	fr.Record(3, 7, StageTx)
	fr.Record(3, 7, StageLinkRx)
	fr.Record(3, 7, StageLinkRx)
	fr.Record(3, 7, StageAdmit)
	fr.Record(3, 7, StageCheckpoint)
	fr.Record(3, 7, StageAck)

	s := fr.Snapshot()
	if len(s.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(s.Spans))
	}
	v := s.Spans[0]
	if v.Node != 3 || v.Seq != 7 {
		t.Fatalf("span key = (%d, %d), want (3, 7)", v.Node, v.Seq)
	}
	if !v.Acked() {
		t.Fatal("span not acked")
	}
	if v.Retransmits() != 1 {
		t.Fatalf("retransmits = %d, want 1", v.Retransmits())
	}
	if v.Hits[StageLinkRx] != 2 {
		t.Fatalf("link-rx hits = %d, want 2", v.Hits[StageLinkRx])
	}
	// Chain stamps must be monotone in recording order.
	last := int64(0)
	for _, st := range chainStages {
		if v.StampNs[st] == 0 {
			t.Fatalf("stage %v unstamped", st)
		}
		if v.StampNs[st] < last {
			t.Fatalf("stage %v stamp %d < previous %d", st, v.StampNs[st], last)
		}
		last = v.StampNs[st]
	}
	if got := ValidateFlight(s, true, true); len(got) != 0 {
		t.Fatalf("validator flagged a clean span: %v", got)
	}

	snap := r.Snapshot()
	if snap.Counters["flight.spans_completed"] != 1 {
		t.Errorf("spans_completed = %d, want 1", snap.Counters["flight.spans_completed"])
	}
	if snap.Gauges["flight.spans_open"] != 0 {
		t.Errorf("spans_open = %d, want 0", snap.Gauges["flight.spans_open"])
	}
	if snap.Counters["flight.stage_events"] != 9 {
		t.Errorf("stage_events = %d, want 9", snap.Counters["flight.stage_events"])
	}
}

// TestFlightRecorderLatencyHistogram pins node.report_latency_us to the
// recorder's own stamps: one observation per completed span, equal to
// its truncated noised → ACK span, and none for a span never noised.
func TestFlightRecorderLatencyHistogram(t *testing.T) {
	fr := NewFlightRecorder(16)
	r := NewRegistry()
	m := NewFlightMetrics(r)
	fr.SetMetrics(m)

	fr.Record(1, 1, StageNoised)
	time.Sleep(time.Millisecond) // a span long enough to be non-zero in µs
	fr.Record(1, 1, StageAck)
	v := fr.Snapshot().Spans[0]
	want := (v.StampNs[StageAck] - v.StampNs[StageNoised]) / 1_000
	if want < 1_000 {
		t.Fatalf("span lasted %d µs across a 1 ms sleep", want)
	}
	if m.LatencyUs.Count() != 1 || m.LatencyUs.Sum() != want {
		t.Fatalf("histogram count %d sum %d, want 1 and %d", m.LatencyUs.Count(), m.LatencyUs.Sum(), want)
	}

	// Repeat ACKs (duplicate collector ACKs) and late tx hits leave it.
	fr.Record(1, 1, StageAck)
	fr.Record(1, 1, StageTx)
	if m.LatencyUs.Count() != 1 || m.LatencyUs.Sum() != want {
		t.Fatalf("repeat hits re-observed: count %d sum %d", m.LatencyUs.Count(), m.LatencyUs.Sum())
	}
	if got := r.Snapshot().Counters["flight.spans_completed"]; got != m.LatencyUs.Count() {
		t.Fatalf("spans_completed %d != histogram count %d", got, m.LatencyUs.Count())
	}

	// An ACK with no noised stamp has no latency to observe.
	fr.Record(2, 9, StageAck)
	if m.LatencyUs.Count() != 1 {
		t.Fatalf("un-noised ACK observed: count %d", m.LatencyUs.Count())
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(1, 2, StageNoised) // must not panic
	fr.SetMetrics(nil)
	if fr.Snapshot() != nil {
		t.Fatal("nil recorder snapshot should be nil")
	}
	if fr.Dropped() != 0 || fr.Capacity() != 0 {
		t.Fatal("nil recorder should report zeros")
	}
}

func TestFlightRecorderFirstStampSticks(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(1, 1, StageTx)
	first := fr.Snapshot().Spans[0].StampNs[StageTx]
	fr.Record(1, 1, StageTx)
	s := fr.Snapshot().Spans[0]
	if s.StampNs[StageTx] != first {
		t.Fatalf("first stamp moved: %d -> %d", first, s.StampNs[StageTx])
	}
	if s.Hits[StageTx] != 2 {
		t.Fatalf("hits = %d, want 2", s.Hits[StageTx])
	}
}

func TestFlightRecorderDropsWhenFull(t *testing.T) {
	fr := NewFlightRecorder(1) // rounds up to the 256 minimum
	capn := fr.Capacity()
	for i := 0; i < capn+100; i++ {
		fr.Record(int64(i%16), uint64(i), StageNoised)
	}
	if fr.Dropped() == 0 {
		t.Fatal("over-capacity recording should drop")
	}
	s := fr.Snapshot()
	if len(s.Spans)+int(s.Dropped) != capn+100 {
		t.Fatalf("spans %d + dropped %d != %d records", len(s.Spans), s.Dropped, capn+100)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := uint64(0); seq < 256; seq++ {
				for st := Stage(0); st < NumStages; st++ {
					fr.Record(int64(g), seq, st)
				}
			}
		}(g)
	}
	wg.Wait()
	s := fr.Snapshot()
	if len(s.Spans) != 8*256 {
		t.Fatalf("spans = %d, want %d", len(s.Spans), 8*256)
	}
	if s.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", s.Dropped)
	}
	for _, v := range s.Spans {
		for st := Stage(0); st < NumStages; st++ {
			if v.Hits[st] != 1 || v.StampNs[st] == 0 {
				t.Fatalf("span (%d,%d) stage %v: hits %d stamp %d", v.Node, v.Seq, st, v.Hits[st], v.StampNs[st])
			}
		}
	}
}

func TestValidateFlightCatchesIncompleteChain(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(2, 5, StageNoised)
	fr.Record(2, 5, StageAck) // acked without tx/link-rx/admit
	got := ValidateFlight(fr.Snapshot(), true, false)
	if len(got) == 0 {
		t.Fatal("validator missed an incomplete acked chain")
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"tx-attempt", "link-rx", "shard-admit", "journal-commit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
}
