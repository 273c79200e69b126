package trace

import (
	"math/rand"
	"testing"

	"ebcp/internal/amo"
)

func TestSliceReplay(t *testing.T) {
	recs := []Record{
		{Gap: 10, Kind: Load, Addr: 0x1000, PC: 0x40},
		{Gap: 0, Kind: IFetch, Addr: 0x2000, PC: 0x2000},
		{Gap: 3, Kind: Store, Addr: 0x3000, PC: 0x44, Serializing: true},
	}
	sameRecords(t, "replay", drainNext(NewSlice(recs)), recs)
}

func TestLimit(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{Gap: 9, Kind: Load, Addr: amo.Addr(i * 64)}
	}
	// Each record is 10 instructions; limit at 55 should deliver 6 records
	// (60 insts >= 55 only after the 6th is consumed: limit checks before
	// delivery, so records are delivered while insts < 55 -> 6 records).
	got := drainNext(NewLimit(NewSlice(recs), 55))
	sameRecords(t, "limit", got, recs[:6])
}

func TestLimitExhaustedSource(t *testing.T) {
	l := NewLimit(NewSlice([]Record{{Gap: 1, Kind: Load}}), 1000)
	if _, ok := l.Next(); !ok {
		t.Fatal("first Next should succeed")
	}
	if _, ok := l.Next(); ok {
		t.Fatal("second Next should report exhaustion")
	}
}

// physMask keeps an address within the 45-bit physical address space.
const physMask = 1<<45 - 1

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		k := Kind(rng.Intn(3))
		a := amo.Addr(rng.Uint64() & physMask)
		pc := amo.PC(rng.Uint64() & physMask)
		if k == IFetch || rng.Intn(3) == 0 {
			pc = amo.PC(a)
		}
		recs[i] = Record{
			Gap:           uint32(rng.Intn(1000)),
			Kind:          k,
			Addr:          a,
			PC:            pc,
			DependsOnMiss: rng.Intn(4) == 0,
			Serializing:   rng.Intn(10) == 0,
			BreaksWindow:  rng.Intn(3) == 0,
		}
	}
	return recs
}

// drainNext collects src's full stream via per-record Next calls.
func drainNext(src Source) []Record {
	var out []Record
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// drainBatch collects src's full stream via FillBatch with the given
// batch size.
func drainBatch(src Source, size int) []Record {
	var out []Record
	buf := make([]Record, size)
	for {
		n := FillBatch(src, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func sameRecords(t *testing.T, label string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestBatchMatchesNext locks the batched-Source contract for every
// native BatchSource and for the FillBatch fallback: the bulk
// path must deliver exactly the record sequence repeated Next calls
// would, for any batch size.
func TestBatchMatchesNext(t *testing.T) {
	recs := randomRecords(997, 3)
	for _, size := range []int{1, 2, 7, 64, 997, 2048} {
		// Slice.
		want := drainNext(NewSlice(recs))
		sameRecords(t, "slice", drainBatch(NewSlice(recs), size), want)

		// Limit at various cut points, including mid-batch trips.
		for _, max := range []uint64{1, 50, 999, 5_000, 1 << 30} {
			want := drainNext(NewLimit(NewSlice(recs), max))
			got := drainBatch(NewLimit(NewSlice(recs), max), size)
			sameRecords(t, "limit", got, want)
			// A Limit over a Next-only source exercises the fallback fill.
			got = drainBatch(NewLimit(nextOnly{NewSlice(recs)}, max), size)
			sameRecords(t, "limit/fallback", got, want)
		}
	}
}

// TestLimitBatchInstructionCount checks the limit's instruction ledger
// under batched delivery: Next and batches deliver the same instructions,
// ending with the first record that reaches the limit.
func TestLimitBatchInstructionCount(t *testing.T) {
	recs := randomRecords(500, 9)
	const limit = 4000
	insts := func(got []Record) (sum, last uint64) {
		for _, r := range got {
			last = uint64(r.Gap) + 1
			sum += last
		}
		return sum, last
	}
	a, _ := insts(drainNext(NewLimit(NewSlice(recs), limit)))
	b, last := insts(drainBatch(NewLimit(NewSlice(recs), limit), 64))
	if a != b {
		t.Errorf("instructions delivered: next %d, batch %d", a, b)
	}
	if b < limit || b-last >= limit {
		t.Errorf("batch delivered %d instructions, the last record %d: the limit %d is not crossed by the last record", b, last, limit)
	}
}

// nextOnly hides ReadBatch so FillBatch must take its fallback path.
type nextOnly struct{ s Source }

func (n nextOnly) Next() (Record, bool) { return n.s.Next() }

// TestBatchMixedWithNext checks that Next and ReadBatch consume from the
// same stream position when interleaved.
func TestBatchMixedWithNext(t *testing.T) {
	recs := randomRecords(100, 5)
	s := NewSlice(recs)
	buf := make([]Record, 7)

	r, ok := s.Next()
	if !ok || r != recs[0] {
		t.Fatalf("Next = %+v, %v", r, ok)
	}
	if n := s.ReadBatch(buf); n != 7 {
		t.Fatalf("ReadBatch = %d, want 7", n)
	}
	sameRecords(t, "mixed", buf[:7], recs[1:8])
	r, ok = s.Next()
	if !ok || r != recs[8] {
		t.Fatalf("Next after batch = %+v, want %+v", r, recs[8])
	}
}
