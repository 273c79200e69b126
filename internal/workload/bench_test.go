package workload

import (
	"runtime"
	"testing"

	"ebcp/internal/trace"
)

// genSink keeps the benchmarked generators live.
var genSink *Generator

// BenchmarkGeneratorNew builds each benchmark's generator: the set-up
// cost of every simulation. B/op counts everything a build allocates,
// its scratch included; MB-retained is what one generator keeps live,
// read as the change in HeapAlloc after a GC.
func BenchmarkGeneratorNew(b *testing.B) {
	for _, p := range All() {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				genSink = must(New(p))
			}
			b.StopTimer()
			b.ReportMetric(retainedMB(p), "MB-retained")
		})
	}
}

// retainedMB is the heap one generator for p keeps live after a GC.
func retainedMB(p Params) float64 {
	var before, after runtime.MemStats
	genSink = nil
	runtime.GC()
	runtime.ReadMemStats(&before)
	genSink = must(New(p))
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
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
