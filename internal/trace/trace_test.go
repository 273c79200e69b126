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
	s := NewSlice(recs)
	for i := 0; i < 2; i++ {
		var got []Record
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		if len(got) != len(recs) {
			t.Fatalf("replay %d: got %d records, want %d", i, len(got), len(recs))
		}
		for j := range recs {
			if got[j] != recs[j] {
				t.Errorf("replay %d: record %d = %+v, want %+v", i, j, got[j], recs[j])
			}
		}
		s.Reset()
	}
}

func TestLimit(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{Gap: 9, Kind: Load, Addr: amo.Addr(i * 64)}
	}
	// Each record is 10 instructions; limit at 55 should deliver 6 records
	// (60 insts >= 55 only after the 6th is consumed: limit checks before
	// delivery, so records are delivered while insts < 55 -> 6 records).
	l := NewLimit(NewSlice(recs), 55)
	n := 0
	for {
		_, ok := l.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 6 {
		t.Errorf("delivered %d records, want 6", n)
	}
	if l.Instructions() != 60 {
		t.Errorf("Instructions() = %d, want 60", l.Instructions())
	}
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

func TestMeasure(t *testing.T) {
	recs := []Record{
		{Gap: 10, Kind: Load, Addr: 0x1000},
		{Gap: 5, Kind: Load, Addr: 0x1010}, // same line as above
		{Gap: 0, Kind: IFetch, Addr: 0x2000, DependsOnMiss: true},
		{Gap: 2, Kind: Store, Addr: 0x3000, Serializing: true},
	}
	st := Measure(NewSlice(recs))
	if st.Records != 4 || st.Instructions != 21 {
		t.Errorf("Records=%d Instructions=%d, want 4, 21", st.Records, st.Instructions)
	}
	if st.Loads != 2 || st.IFetches != 1 || st.Stores != 1 {
		t.Errorf("kind counts = %d/%d/%d", st.Loads, st.IFetches, st.Stores)
	}
	if st.Dependent != 1 || st.Serializing != 1 {
		t.Errorf("flags = dep %d ser %d", st.Dependent, st.Serializing)
	}
	if st.DistinctLine != 3 {
		t.Errorf("DistinctLine = %d, want 3 (0x1000 and 0x1010 share a line)", st.DistinctLine)
	}
	if st.FootprintBytes() != 3*64 {
		t.Errorf("FootprintBytes = %d", st.FootprintBytes())
	}
}

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		k := Kind(rng.Intn(3))
		a := amo.Addr(rng.Uint64()) & amo.AddrMask
		pc := amo.PC(rng.Uint64()) & amo.PC(amo.AddrMask)
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

// TestLimitBatchInstructionCount checks the limit's instruction ledger is
// identical under batched delivery.
func TestLimitBatchInstructionCount(t *testing.T) {
	recs := randomRecords(500, 9)
	a := NewLimit(NewSlice(recs), 4000)
	b := NewLimit(NewSlice(recs), 4000)
	drainNext(a)
	drainBatch(b, 64)
	if a.Instructions() != b.Instructions() {
		t.Errorf("Instructions: next %d, batch %d", a.Instructions(), b.Instructions())
	}
}
