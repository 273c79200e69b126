package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := randomRecords(5000, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}

	r := NewReader(&buf)
	for i, want := range recs {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record %d: unexpected end of trace (err=%v)", i, r.Err())
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("trace should be exhausted")
	}
	if r.Err() != nil {
		t.Errorf("clean EOF should leave Err nil, got %v", r.Err())
	}
}

func TestEncodeDecodeSingleRecordProperty(t *testing.T) {
	f := func(gap uint32, kindRaw uint8, addrRaw, pcRaw uint64, dep, ser, pcSame bool) bool {
		rec := Record{
			Gap:           gap % maxSaneGap,
			Kind:          Kind(kindRaw % 3),
			Addr:          amo.Addr(addrRaw) & amo.AddrMask,
			DependsOnMiss: dep,
			Serializing:   ser,
		}
		if pcSame {
			rec.PC = amo.PC(rec.Addr)
		} else {
			rec.PC = amo.PC(pcRaw) & amo.PC(amo.AddrMask)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		got, ok := r.Next()
		return ok && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOTATRACEFILE")))
	if _, ok := r.Next(); ok {
		t.Fatal("Next should fail on bad magic")
	}
	if r.Err() != ErrBadMagic {
		t.Errorf("Err = %v, want ErrBadMagic", r.Err())
	}
}

func TestReaderTruncated(t *testing.T) {
	recs := randomRecords(100, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the stream mid-record.
	data := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(data))
	n := 0
	for {
		_, ok := r.Next()
		if !ok {
			break
		}
		n++
	}
	if n >= len(recs) {
		t.Fatalf("decoded %d records from truncated stream of %d", n, len(recs))
	}
	if r.Err() == nil {
		t.Error("truncation mid-record should set Err")
	}
}

func TestWriterEmptyFlushWritesHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, ok := r.Next(); ok {
		t.Error("empty trace should yield no records")
	}
	if r.Err() != nil {
		t.Errorf("empty trace should decode cleanly, got %v", r.Err())
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	// Decoding arbitrary bytes after a valid header must fail cleanly
	// (error or clean EOF), never panic, and never loop forever.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		data := make([]byte, 8+n)
		copy(data, magic[:])
		rng.Read(data[8:])
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 10000; i++ {
			if _, ok := r.Next(); !ok {
				break
			}
		}
	}
}

func TestReaderAfterErrorStaysFailed(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("BADMAGICxxxx")))
	r.Next()
	err := r.Err()
	if err == nil {
		t.Fatal("expected error")
	}
	// Further calls return false and keep the first error.
	if _, ok := r.Next(); ok {
		t.Error("reader revived after error")
	}
	if r.Err() != err {
		t.Error("first error not sticky")
	}
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
