// Package ebcperr defines the error taxonomy shared by every layer of
// the simulator. Each sentinel classifies a whole family of failures, so
// callers branch with errors.Is regardless of which package produced the
// error or how many layers wrapped it:
//
//	ErrInvalidConfig — a constructor or Validate method rejected its
//	    configuration; nothing was built or run.
//	ErrShortTrace — a trace source was exhausted before the warmup
//	    window completed, so the statistics include warmup and are not
//	    Table 1-grade data.
//	ErrCancelled — a context was cancelled before the work ran.
//	ErrBadReport — a machine-readable report failed to decode or
//	    carried an unsupported schema.
//	ErrInvariant — a metrics snapshot failed reconciliation; the
//	    counters contradict each other and the run must not be trusted.
//	ErrOverloaded — a bounded resource (the serving daemon's request
//	    queue) was full and the work was rejected rather than queued
//	    without bound; the caller should retry later.
//
// Errors carrying a sentinel keep a human-readable message of their own;
// the sentinel is reachable through errors.Is/errors.Unwrap, not pasted
// into the text.
package ebcperr

import (
	"errors"
	"fmt"
)

// Sentinel errors for the simulator's failure classes.
var (
	// ErrInvalidConfig classifies configuration validation failures.
	ErrInvalidConfig = errors.New("invalid configuration")
	// ErrShortTrace classifies runs whose trace ended inside the warmup
	// window: their statistics include warmup and must not be reported as
	// measured results.
	ErrShortTrace = errors.New("trace ended before warmup completed")
	// ErrCancelled classifies work skipped because a context was
	// cancelled before it could start.
	ErrCancelled = errors.New("cancelled")
	// ErrBadReport classifies machine-readable reports that fail to
	// decode or carry an unsupported schema.
	ErrBadReport = errors.New("bad report")
	// ErrInvariant classifies metrics snapshots whose counters fail
	// reconciliation (Snapshot.CheckInvariants).
	ErrInvariant = errors.New("metrics invariant violated")
	// ErrOverloaded classifies work rejected because a bounded queue or
	// pool was full (backpressure, not failure: retrying later may
	// succeed). The serving layer maps it to HTTP 429.
	ErrOverloaded = errors.New("overloaded")
)

// wrapped pairs a formatted message with a sentinel. Error returns only
// the message; the sentinel is exposed through Unwrap so errors.Is
// matches without the classification text repeating in every message.
type wrapped struct {
	msg      string
	sentinel error
}

func (e *wrapped) Error() string { return e.msg }
func (e *wrapped) Unwrap() error { return e.sentinel }

// Wrap builds an error with the given formatted message that matches
// sentinel under errors.Is.
func Wrap(sentinel error, format string, args ...any) error {
	return &wrapped{msg: fmt.Sprintf(format, args...), sentinel: sentinel}
}

// Invalidf builds an ErrInvalidConfig-classified error with a formatted
// description of the rejected field.
func Invalidf(format string, args ...any) error {
	return Wrap(ErrInvalidConfig, format, args...)
}

// Cancelledf builds an ErrCancelled-classified error.
func Cancelledf(format string, args ...any) error {
	return Wrap(ErrCancelled, format, args...)
}
