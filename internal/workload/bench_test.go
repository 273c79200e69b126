package workload

import (
	"testing"

	"ebcp/internal/trace"
)

// genSink keeps the benchmarked generators live.
var genSink *Generator

// BenchmarkGeneratorNew builds each benchmark's generator: the set-up
// cost of every simulation, and (as B/op) the size of its chain library.
func BenchmarkGeneratorNew(b *testing.B) {
	for _, p := range All() {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				genSink = must(New(p))
			}
		})
	}
}

// BenchmarkGeneratorReadBatch times the steady-state stream in the
// batches the simulator's trace reader asks for, per record.
func BenchmarkGeneratorReadBatch(b *testing.B) {
	for _, p := range All() {
		b.Run(p.Name, func(b *testing.B) {
			g := must(New(p))
			buf := make([]trace.Record, claimBatch)
			g.ReadBatch(buf) // warm the reused buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ReadBatch(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/record")
		})
	}
}
