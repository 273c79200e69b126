package workload

import (
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/trace"
)

// traceStats summarizes a trace for the structural and calibration
// checks.
type traceStats struct {
	Records      uint64
	Instructions uint64
	IFetches     uint64
	Loads        uint64
	Stores       uint64
	Dependent    uint64
	Serializing  uint64
	WindowBreaks uint64
	DistinctLine uint64
}

// measure drains src and returns its summary statistics.
func measure(src trace.Source) traceStats {
	var st traceStats
	lines := make(map[amo.Line]struct{})
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		st.Records++
		st.Instructions += uint64(r.Gap) + 1
		switch r.Kind {
		case trace.IFetch:
			st.IFetches++
		case trace.Load:
			st.Loads++
		case trace.Store:
			st.Stores++
		}
		if r.DependsOnMiss {
			st.Dependent++
		}
		if r.Serializing {
			st.Serializing++
		}
		if r.BreaksWindow {
			st.WindowBreaks++
		}
		lines[amo.LineOf(r.Addr)] = struct{}{}
	}
	st.DistinctLine = uint64(len(lines))
	return st
}

// footprintBytes returns the distinct-line footprint in bytes.
func (s traceStats) footprintBytes() uint64 { return s.DistinctLine * amo.LineSize }

func TestMeasure(t *testing.T) {
	recs := []trace.Record{
		{Gap: 10, Kind: trace.Load, Addr: 0x1000},
		{Gap: 5, Kind: trace.Load, Addr: 0x1010}, // same line as above
		{Gap: 0, Kind: trace.IFetch, Addr: 0x2000, DependsOnMiss: true},
		{Gap: 2, Kind: trace.Store, Addr: 0x3000, Serializing: true},
	}
	st := measure(trace.NewSlice(recs))
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
	if st.footprintBytes() != 3*64 {
		t.Errorf("footprintBytes = %d", st.footprintBytes())
	}
}
