// Package trace defines the condensed trace format consumed by the
// simulator.
//
// The paper drives its cycle-accurate simulator with full-system SPARC
// traces. We cannot ship those, so this reproduction uses *condensed*
// traces: accesses that are guaranteed cache-hot (the vast majority of a
// commercial workload's dynamic loads and fetches) are folded into the
// calibrated on-chip CPI of the core model, and the trace carries only the
// events that exercise the simulated memory hierarchy — instruction-footprint
// fetches and data-footprint loads/stores — each annotated with the number
// of on-chip instructions that precede it.
//
// A record also carries the two pieces of dataflow information the epoch
// model needs and which the paper's simulator recovered from register
// values: whether the access depends on the most recent off-chip load
// (pointer chasing — such a miss cannot overlap with the miss it depends
// on) and whether the instruction is serializing (a window termination
// condition).
//
// # The batched-Source contract
//
// Source delivers one Record per Next call; hot consumers should instead
// read through FillBatch, which uses the bulk ReadBatch path when the
// source implements BatchSource. ReadBatch must deliver exactly the
// record sequence repeated Next calls would (so batching is purely a
// throughput optimization, never a semantic one), must return 0 only at
// end of stream, and need not fill dst completely on intermediate calls.
// Slice, Limit and workload.Generator batch natively; FillBatch falls back
// to Next for any other Source.
//
// What is exact is the delivered sequence, not the position a source is
// left at. sim.Run and sim.RunCMP read each source through an Ahead, on
// one reader goroutine of their own, up to two batches past the batch
// being simulated; a wrapper that truncates a stream (Limit) may
// likewise pull a few records past the cut from its underlying source. A
// source handed to Run or RunCMP must therefore not be touched elsewhere
// until the call returns, and its position afterwards is unspecified.
package trace

import (
	"ebcp/internal/amo"
	"fmt"
)

// Kind distinguishes the access types in a trace record.
type Kind uint8

const (
	// IFetch is an instruction fetch from the instruction footprint.
	IFetch Kind = iota
	// Load is a data load.
	Load
	// Store is a data store. Under the weak consistency model of the
	// baseline processor, store misses are buffered and do not terminate
	// instruction windows, and the prefetchers do not train on them; they
	// still consume write bandwidth.
	Store
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one condensed trace event.
type Record struct {
	// Gap is the number of on-chip (cache-hot) instructions executed since
	// the previous record. The instruction carrying the memory access
	// itself is counted in addition to Gap.
	Gap uint32
	// Kind is the access type.
	Kind Kind
	// Addr is the physical byte address accessed (for IFetch, the
	// instruction's own address).
	Addr amo.Addr
	// PC is the physical program counter of the instruction performing the
	// access. For IFetch records PC == Addr.
	PC amo.PC
	// DependsOnMiss marks an access whose address is computed from the
	// value returned by the most recent off-chip load (pointer chasing).
	// If that load missed, this access cannot issue until it returns, so
	// it can never share an epoch with it.
	DependsOnMiss bool
	// Serializing marks a window termination point (serializing
	// instruction): no later access may overlap with misses outstanding
	// before it.
	Serializing bool
	// BreaksWindow marks an access followed closely by a mispredicted
	// branch that depends on its value — the window termination condition
	// that dominates commercial workloads. The window terminates right
	// after the access issues: no later instruction overlaps with the
	// epoch it belongs to.
	BreaksWindow bool
}

// Source is a stream of trace records. Next returns io-style (rec, true)
// until the stream is exhausted, then (zero, false). Sources are not safe
// for concurrent use.
type Source interface {
	Next() (Record, bool)
}

// BatchSource is the bulk path of the batched-Source contract: ReadBatch
// fills dst with the next records of the stream and returns how many were
// written. It returns 0 only at end of stream (given len(dst) > 0), and
// delivers exactly the record sequence repeated Next calls would — hot
// loops read whole slices instead of paying one interface call per
// record. Mixing Next and ReadBatch on one source is allowed; both
// consume from the same position. Use FillBatch to read from any Source
// through this path when available.
type BatchSource interface {
	Source
	ReadBatch(dst []Record) int
}

// FillBatch fills dst from src, using the bulk path when src implements
// BatchSource and falling back to per-record Next calls otherwise. It
// returns the number of records written; 0 means end of stream.
//
//ebcp:hotpath
func FillBatch(src Source, dst []Record) int {
	if bs, ok := src.(BatchSource); ok {
		return bs.ReadBatch(dst)
	}
	n := 0
	for n < len(dst) {
		r, ok := src.Next()
		if !ok {
			break
		}
		dst[n] = r
		n++
	}
	return n
}

// Slice is an in-memory trace.
type Slice struct {
	recs []Record
	pos  int
}

// NewSlice wraps recs in a Source.
func NewSlice(recs []Record) *Slice { return &Slice{recs: recs} }

// Next implements Source.
//
//ebcp:hotpath
func (s *Slice) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// ReadBatch implements BatchSource by copying directly out of the
// in-memory record slice.
//
//ebcp:hotpath
func (s *Slice) ReadBatch(dst []Record) int {
	n := copy(dst, s.recs[s.pos:])
	s.pos += n
	return n
}

// Limit wraps a source and stops it after the given number of instructions
// (gaps + memory-access instructions) have been delivered.
type Limit struct {
	src   Source
	insts uint64
	max   uint64
}

// NewLimit returns a Source that delivers records from src until maxInsts
// instructions have been consumed.
func NewLimit(src Source, maxInsts uint64) *Limit {
	return &Limit{src: src, max: maxInsts}
}

// Next implements Source.
//
//ebcp:hotpath
func (l *Limit) Next() (Record, bool) {
	if l.insts >= l.max {
		return Record{}, false
	}
	r, ok := l.src.Next()
	if !ok {
		return Record{}, false
	}
	l.insts += uint64(r.Gap) + 1
	return r, true
}

// ReadBatch implements BatchSource. It delivers exactly the records the
// equivalent Next loop would (a record is delivered iff fewer than max
// instructions were consumed before it). To batch the read it may pull a
// few records past the limit from the underlying source; after the limit
// trips, the underlying source's position is therefore unspecified.
//
//ebcp:hotpath
func (l *Limit) ReadBatch(dst []Record) int {
	if l.insts >= l.max {
		return 0
	}
	// Every record carries ≥1 instruction, so at most `remaining` more
	// records can be delivered; capping the chunk bounds the over-read.
	if remaining := l.max - l.insts; uint64(len(dst)) > remaining {
		dst = dst[:remaining]
	}
	n := FillBatch(l.src, dst)
	for i := 0; i < n; i++ {
		if l.insts >= l.max {
			return i // dst[i:n] was over-read and is not delivered
		}
		l.insts += uint64(dst[i].Gap) + 1
	}
	return n
}
