package collector

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ulpdp/internal/transport"
)

// benchIngest drives b.N reports round-robin across a fleet of
// attached lossless links and waits for the reactor to record every
// one. Flow control mirrors a real fleet's ACK clocking: the sender
// never lets more than maxInFlight reports be outstanding, so the
// bounded link queues (cap 256) cannot overflow and every report is
// accepted exactly once.
func benchIngest(b *testing.B, nodes int, durable bool) {
	const maxInFlight = 4096
	cfg := Config{
		BreakerThreshold: 1 << 30,
		PollTimeout:      time.Hour, // no idle ticks in the hot-path measurement
	}
	var col *Collector
	if durable {
		var err error
		col, err = NewDurable(cfg, NewStore(0))
		if err != nil {
			b.Fatal(err)
		}
	} else {
		col = New(cfg)
	}
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
	inFlight := maxInFlight
	if nodes < 64 {
		// Keep the per-link share of the in-flight window under the
		// queue cap so nothing overflows.
		inFlight = nodes * 128
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % nodes
		ends[n].Send(transport.Packet{
			Kind: transport.KindReport, Node: transport.NodeID(n),
			Seq: seqs[n], Value: int64(i),
		})
		seqs[n]++
		// Drain this node's ACKs like a real agent would, so frames
		// keep cycling through the transport pool instead of parking
		// in a never-read receive queue.
		for {
			if _, ok := ends[n].TryRecv(); !ok {
				break
			}
		}
		if (i+1)%inFlight == 0 {
			for col.Stats().Accepted+uint64(inFlight) < uint64(i+1) {
				runtime.Gosched()
			}
		}
	}
	for col.Stats().Accepted < uint64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/sec")

	if st := col.Stats(); st.Accepted != uint64(b.N) || st.Duplicates != 0 {
		b.Fatalf("accounting drifted: %+v for %d sends", st, b.N)
	}
}

// BenchmarkCollectorIngest measures steady-state ingest throughput of
// the sharded, event-driven reactor. The per-report path — pooled
// frame marshal, readiness notification, shard drain, dedup record,
// batched ACK writeback — must stay at 0 allocs/op.
func BenchmarkCollectorIngest(b *testing.B) {
	for _, nodes := range []int{64, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchIngest(b, nodes, false)
		})
	}
}

// BenchmarkCollectorIngestDurable is the same measurement with shard
// checkpoint journaling on (two-phase admission WAL plus periodic
// snapshot compaction). Bank growth is amortized append and compaction
// cost is spread over CompactEvery admissions, so steady-state durable
// ingest must also hold 0 allocs/op.
func BenchmarkCollectorIngestDurable(b *testing.B) {
	for _, nodes := range []int{64, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchIngest(b, nodes, true)
		})
	}
}

// BenchmarkShardIdleTick measures one idle tick of a shard whose 4096
// attached nodes are all silent, under a breaker threshold the run
// never reaches. The tick settles silence lazily, so it must not
// scale with the node count, and it must allocate nothing.
func BenchmarkShardIdleTick(b *testing.B) {
	const nodes = 4096
	col := New(Config{Shards: 1, PollTimeout: time.Hour, BreakerThreshold: 1 << 20})
	// Stop the reactor so the benchmark alone drives the shard.
	col.Close()
	for i := 0; i < nodes; i++ {
		link := transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
			b.Fatal(err)
		}
	}
	sh := col.shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.idleTick()
	}
	b.StopTimer()
	if got, want := col.Stats().Timeouts, uint64(b.N)*nodes; got != want {
		b.Fatalf("Timeouts = %d after %d ticks of %d silent nodes, want %d", got, b.N, nodes, want)
	}
}
