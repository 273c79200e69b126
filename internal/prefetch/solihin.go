package prefetch

import (
	"fmt"

	"ebcp/internal/amo"
	"ebcp/internal/corrtab"
	"ebcp/internal/ebcperr"
)

// Solihin is the memory-side correlation prefetcher of Solihin, Lee and
// Torrellas (ISCA 2002), the scheme conceptually closest to EBCP: its
// correlation table also lives in main memory. On every L2 miss it reads
// the missing address's table entry, which stores the miss addresses that
// followed it in the dynamic miss stream — up to Depth levels deep with
// Width alternatives per level — and prefetches them. Training pairs each
// miss with the Depth misses that preceded it.
//
// Because the stored successors are the misses of the *immediately
// following* epochs, the prefetches read from the memory-resident table
// arrive one epoch too late to cover the next epoch (Section 3.3.1): this
// is the structural timeliness gap EBCP closes by storing the misses of
// epochs i+2 and i+3 instead.
//
// Two variants are compared in Section 5.3: Solihin 3,2 (the original
// depth 3, width 2) and Solihin 6,1 (depth 6, width 1), both issuing at
// most six prefetches per match from a one-million-entry table.
type Solihin struct {
	label    string
	depth    int
	width    int
	maxIssue int

	table *corrtab.Table
	// history holds the most recent Depth misses, newest first.
	history []amo.Line
	// scratch passes the single trained successor to Table.Update
	// without a per-miss slice literal; Update copies, never retains.
	scratch [1]amo.Line
}

// NewSolihin builds a Solihin prefetcher with the given depth/width and
// table entries. Each table entry stores depth*width addresses with LRU
// replacement (the flat-LRU realization of the level structure: Width
// generations of the Depth-deep successor window coexist in the entry).
// A bad shape returns an ErrInvalidConfig-classified error.
func NewSolihin(depth, width, tableEntries int) (*Solihin, error) {
	if depth <= 0 || width <= 0 {
		return nil, ebcperr.Invalidf("prefetch: Solihin depth %d and width %d must be positive", depth, width)
	}
	maxIssue := depth * width
	if maxIssue > 6 {
		maxIssue = 6 // the paper's comparison issues at most six
	}
	table, err := corrtab.New(corrtab.Config{Entries: tableEntries, MaxAddrs: depth * width})
	if err != nil {
		return nil, err
	}
	return &Solihin{
		label:    fmt.Sprintf("Solihin %d,%d", depth, width),
		depth:    depth,
		width:    width,
		maxIssue: maxIssue,
		table:    table,
		history:  make([]amo.Line, 0, depth),
	}, nil
}

// Name implements Prefetcher.
func (s *Solihin) Name() string { return s.label }

// OnAccess implements Prefetcher.
//
//ebcp:hotpath
func (s *Solihin) OnAccess(a Access, ctx *Context) {
	// Memory-side engine sees the off-chip miss stream (instructions and
	// loads). Prefetch-buffer hits were misses in the unprefetched stream,
	// so they keep training the successor chains.
	if a.L2Hit || a.MissMerged {
		return
	}

	// Train: this miss is a successor of each of the last Depth misses.
	// The engine performs a read-modify-write of the table per miss.
	ctx.TableRead(a.Now)
	s.scratch[0] = a.Line
	for _, prev := range s.history {
		s.table.Update(prev, s.scratch[:])
	}
	ctx.TableWrite(a.Now)

	// Slide the history window.
	if len(s.history) == s.depth {
		copy(s.history[1:], s.history[:s.depth-1])
		s.history[0] = a.Line
	} else {
		s.history = append(s.history, 0) //ebcp:allow hotpathalloc capacity depth is reserved in NewSolihin; this never reallocates
		copy(s.history[1:], s.history)
		s.history[0] = a.Line
	}

	// Predict: read this miss's entry from main memory; the prefetches
	// issue when the table read returns.
	addrs := s.table.Lookup(a.Line)
	if len(addrs) == 0 {
		return
	}
	completion, ok := ctx.TableRead(a.Now)
	if !ok {
		return // table read dropped: no prefetches this miss
	}
	issued := 0
	for _, addr := range addrs {
		if issued >= s.maxIssue {
			break
		}
		if ctx.Prefetch(completion, addr, NoTable) {
			issued++
		}
	}
}
