package corrtab

import (
	"math/rand"
	"testing"

	"ebcp/internal/amo"
)

// BenchmarkCorrtab measures one Lookup plus one Update — the table work
// of one EBCP epoch — in the tuned 1M-entry, 8-address table, over a
// fixed seeded stream of 2^17 distinct keys.
func BenchmarkCorrtab(b *testing.B) {
	tb := must(New(Config{Entries: 1 << 20, MaxAddrs: 8}))
	rng := rand.New(rand.NewSource(1))
	keys := make([]amo.Line, 1<<17)
	for i := range keys {
		keys[i] = amo.Line(rng.Uint64() >> 24)
	}
	stream := make([]amo.Line, 1<<18)
	for i := range stream {
		stream[i] = keys[rng.Intn(len(keys))]
	}
	addrs := make([]amo.Line, 64)
	for i := range addrs {
		addrs[i] = amo.Line(rng.Uint64() >> 24)
	}
	op := func(i int) {
		k := stream[i&(len(stream)-1)]
		tb.Lookup(k)
		j := i & 31
		tb.Update(k, addrs[j:j+3])
	}
	for i := range stream { // warm: every key materialized
		op(i)
	}
	tb.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.ReportMetric(tb.Stats().HitRate(), "hit/op")
}
