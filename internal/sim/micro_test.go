package sim

import (
	"math/rand"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/trace"
)

// Microbenchmark traces with exactly known structure, which the
// integration tests use to check individual prefetcher behaviours. They
// place data and PCs where the workload generator does.
const (
	microData amo.Addr = 0x0010_0000_0000
	microPC   amo.PC   = 0x0000_7000_0000
)

// pointerChase builds a trace that repeatedly walks a fixed ring of
// dependent loads (each address depends on the previous load), `laps`
// times, with `gap` on-chip instructions between loads. Every load is its
// own epoch once the ring exceeds the caches; the sequence recurs
// perfectly, so correlation prefetchers should learn it completely while
// stride prefetchers see noise.
func pointerChase(seed int64, ringLines, laps, gap int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	ring := make([]amo.Line, ringLines)
	seen := make(map[amo.Line]bool, ringLines)
	for i := range ring {
		for {
			l := amo.LineOf(microData) + amo.Line(rng.Int63n(1<<28))
			if !seen[l] {
				seen[l] = true
				ring[i] = l
				break
			}
		}
	}
	recs := make([]trace.Record, 0, ringLines*laps)
	for lap := 0; lap < laps; lap++ {
		for i, l := range ring {
			recs = append(recs, trace.Record{
				Gap:           uint32(gap),
				Kind:          trace.Load,
				Addr:          l.Addr(),
				PC:            microPC,
				DependsOnMiss: !(lap == 0 && i == 0),
			})
		}
	}
	return recs
}

// strided builds a trace of independent loads walking a fixed line
// stride, the ideal stream-prefetcher workload.
func strided(startLine amo.Line, stride int64, count, gap int) []trace.Record {
	recs := make([]trace.Record, count)
	for i := range recs {
		recs[i] = trace.Record{
			Gap:  uint32(gap),
			Kind: trace.Load,
			Addr: startLine.Add(stride * int64(i)).Addr(),
			PC:   microPC,
		}
	}
	return recs
}

// randomLoads builds a trace of uniformly random independent loads over a
// large space: unpredictable for every prefetcher.
func randomLoads(seed int64, count, gap int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, count)
	for i := range recs {
		recs[i] = trace.Record{
			Gap:  uint32(gap),
			Kind: trace.Load,
			Addr: (amo.LineOf(microData) + amo.Line(rng.Int63n(1<<34))).Addr(),
			PC:   microPC,
		}
	}
	return recs
}

// epochChain builds the paper's running example structure: recurring
// groups of misses where each group's head depends on the previous group
// (one group = one epoch), cycling through `groups` distinct groups of
// `groupSize` lines. This is the EBCP-ideal workload: the first miss of
// epoch i perfectly predicts the misses of epochs i+1, i+2, ...
func epochChain(seed int64, groups, groupSize, laps, gap int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	lines := make([][]amo.Line, groups)
	for i := range lines {
		gl := make([]amo.Line, groupSize)
		for j := range gl {
			gl[j] = amo.LineOf(microData) + amo.Line(rng.Int63n(1<<30))
		}
		lines[i] = gl
	}
	var recs []trace.Record
	for lap := 0; lap < laps; lap++ {
		for gi, gl := range lines {
			for j, l := range gl {
				recs = append(recs, trace.Record{
					Gap:           uint32(gap),
					Kind:          trace.Load,
					Addr:          l.Addr(),
					PC:            microPC,
					DependsOnMiss: j == 0 && !(lap == 0 && gi == 0),
				})
			}
		}
	}
	return recs
}

func TestMicroPointerChase(t *testing.T) {
	recs := pointerChase(1, 100, 3, 50)
	if len(recs) != 300 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].DependsOnMiss {
		t.Error("first load must not be dependent")
	}
	for i := 1; i < len(recs); i++ {
		if !recs[i].DependsOnMiss {
			t.Errorf("record %d should be dependent", i)
		}
	}
	// Ring recurs identically across laps.
	for i := 0; i < 100; i++ {
		if recs[i].Addr != recs[i+100].Addr {
			t.Error("laps must replay the same ring")
			break
		}
	}
}

func TestMicroStrided(t *testing.T) {
	recs := strided(amo.Line(1000), 3, 10, 20)
	for i := 1; i < len(recs); i++ {
		d := int64(amo.LineOf(recs[i].Addr)) - int64(amo.LineOf(recs[i-1].Addr))
		if d != 3 {
			t.Fatalf("stride %d at %d", d, i)
		}
	}
}

func TestMicroEpochChain(t *testing.T) {
	recs := epochChain(3, 10, 3, 2, 40)
	if len(recs) != 10*3*2 {
		t.Fatalf("len = %d", len(recs))
	}
	// Group heads after the first are dependent; members are not.
	for i, r := range recs {
		isHead := i%3 == 0
		if isHead && i > 0 && !r.DependsOnMiss {
			t.Fatalf("head %d not dependent", i)
		}
		if !isHead && r.DependsOnMiss {
			t.Fatalf("member %d dependent", i)
		}
	}
}
