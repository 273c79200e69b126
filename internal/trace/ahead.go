package trace

// Read-ahead sizing: every source owns aheadBufs buffers of aheadBatch
// records. The consumer iterates one of them while the reader keeps the
// other two filled, so a source is read up to two batches past the batch
// being consumed. With only one buffer ahead, the consumer and the reader
// waited on each other at nearly every batch.
const (
	aheadBatch = 1024
	aheadBufs  = 3
)

// aheadBuf is one batch buffer and the index of the source it belongs to.
type aheadBuf struct {
	src  int
	recs []Record
}

// Ahead reads a set of sources on one goroutine of its own and keeps each
// source's next batches filled ahead of the consumer, so generating a
// trace overlaps with simulating it. Each source still delivers exactly
// its own record sequence. The sources must not be touched elsewhere
// until Close returns; their positions afterwards are unspecified. A
// source that panics crashes the program, as it would on the caller's
// goroutine.
type Ahead struct {
	// full[i] carries source i's filled batches in stream order; an
	// empty batch marks the end of the stream.
	full []chan aheadBuf
	// free carries consumed buffers back to the reader for refilling.
	free   chan aheadBuf
	held   []aheadBuf // per source: the batch the consumer iterates
	done   chan struct{}
	exited chan struct{}
}

// NewAhead starts a reader over srcs. Call Close when done, on every
// path, to stop it.
func NewAhead(srcs []Source) *Ahead {
	a := &Ahead{
		full:   make([]chan aheadBuf, len(srcs)),
		free:   make(chan aheadBuf, aheadBufs*len(srcs)), // holds every buffer: sends never block
		held:   make([]aheadBuf, len(srcs)),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for i := range srcs {
		a.full[i] = make(chan aheadBuf, aheadBufs) // holds every buffer of source i
	}
	// Queue one buffer of each source before the next, so every source
	// gets its first batch early.
	for k := 0; k < aheadBufs; k++ {
		for i := range srcs {
			a.free <- aheadBuf{src: i, recs: make([]Record, aheadBatch)}
		}
	}
	go a.read(srcs)
	return a
}

// read fills free buffers from their sources until Close.
func (a *Ahead) read(srcs []Source) {
	defer close(a.exited)
	for {
		select { // stop before refilling once Close was called
		case <-a.done:
			return
		default:
		}
		var b aheadBuf
		select {
		case <-a.done:
			return
		case b = <-a.free:
		}
		b.recs = b.recs[:FillBatch(srcs[b.src], b.recs[:cap(b.recs)])]
		a.full[b.src] <- b
	}
}

// Next returns source i's next batch of records, or an empty batch at end
// of stream. The batch is valid until the next Next(i) call.
//
//ebcp:hotpath
func (a *Ahead) Next(i int) []Record {
	if a.held[i].recs != nil {
		a.free <- a.held[i]
	}
	a.held[i] = <-a.full[i]
	return a.held[i].recs
}

// Close stops the reader and returns once it has exited. The Ahead must
// not be used afterwards.
func (a *Ahead) Close() {
	close(a.done)
	<-a.exited
}
