package cache

import (
	"math/rand"
	"testing"

	"ebcp/internal/amo"
)

// BenchmarkCache measures one L2 probe of the simulator's demand path: a
// 2 MB 4-way cache driven by a fixed seeded line stream (Access, then
// Fill on a miss). The stream draws from twice as many distinct lines as
// the cache holds, so about half the probes miss.
func BenchmarkCache(b *testing.B) {
	c := must(New(Config{Name: "L2", SizeBytes: 2 << 20, Ways: 4, HitLatency: 20}))
	rng := rand.New(rand.NewSource(1))
	pool := make([]amo.Line, 2*(2<<20)/amo.LineSize)
	for i := range pool {
		pool[i] = amo.Line(rng.Uint64() >> 24)
	}
	stream := make([]amo.Line, 1<<16)
	for i := range stream {
		stream[i] = pool[rng.Intn(len(pool))]
	}
	probe := func(l amo.Line) {
		if !c.Access(l) {
			c.Fill(l, false)
		}
	}
	for _, l := range stream { // warm: a full cache, as in a measured run
		probe(l)
	}
	c.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe(stream[i&(len(stream)-1)])
	}
	st := c.Stats()
	b.ReportMetric(float64(st.Misses)/float64(st.Accesses), "miss/op")
}

// BenchmarkPrefetchBuffer measures one prefetch and one demand probe of
// the tuned 64-entry, 4-way buffer, driven by a fixed seeded line stream:
// Contains, then Insert on a miss (as prefetch.Context.Prefetch does),
// then a Hit probe for a line drawn independently from the same pool. The
// pool holds four times as many distinct lines as the buffer.
func BenchmarkPrefetchBuffer(b *testing.B) {
	pb := must(NewPrefetchBuffer(64, 4))
	rng := rand.New(rand.NewSource(1))
	pool := make([]amo.Line, 4*64)
	for i := range pool {
		pool[i] = amo.Line(rng.Uint64() >> 24)
	}
	prefetched := make([]amo.Line, 1<<16)
	demanded := make([]amo.Line, len(prefetched))
	for i := range prefetched {
		prefetched[i] = pool[rng.Intn(len(pool))]
		demanded[i] = pool[rng.Intn(len(pool))]
	}
	step := func(i int) {
		now := uint64(i)
		if l := prefetched[i&(len(prefetched)-1)]; !pb.Contains(l) {
			pb.Insert(l, PBEntry{ReadyAt: now + 4, IssuedAt: now, TableIndex: NoTableIndex})
		}
		pb.Hit(demanded[i&(len(demanded)-1)], now)
	}
	for i := range prefetched { // warm: a full buffer, as in a measured run
		step(i)
	}
	pb.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	st := pb.Stats()
	b.ReportMetric(float64(st.Hits+st.PartialHits)/float64(b.N), "hit/op")
}
