package exp

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"ebcp/internal/ebcperr"
)

// TestCancelledCellsRenderNA locks the cancelled-cell contract: cells
// skipped because the session's context was cancelled must render as
// "n/a" with the footnote, count once each in Failures however often
// the grid is collected, and never masquerade as measured zeros.
func TestCancelledCellsRenderNA(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every cell is cancelled before it can run
	s := NewSessionContext(ctx, Options{Warm: 1e5, Measure: 1e5, Workers: 1})

	c := mustCompiled(t, "table1")
	rep := c.run(s)
	rep = c.run(s) // a second run must not count the cells again

	total := 0
	for _, row := range rep.Rows {
		for _, v := range row.Values {
			total++
			if !math.IsNaN(v) {
				t.Errorf("cancelled cell %q holds %v, want NaN", row.Label, v)
			}
		}
	}
	if rep.NACells() != total {
		t.Errorf("NACells = %d, want %d", rep.NACells(), total)
	}
	if cells := len(c.plan(c.benchmarks(s))); s.Failures() != cells {
		t.Errorf("Failures = %d, want %d (every planned cell, once)", s.Failures(), cells)
	}
	if s.Runs() != 0 {
		t.Errorf("Runs = %d, want 0", s.Runs())
	}
	if s.Err() == nil {
		t.Error("cancelled session must report Err")
	}

	out := rep.String()
	if !strings.Contains(out, "n/a") {
		t.Errorf("render missing n/a cells:\n%s", out)
	}
	if !strings.Contains(out, naNote) {
		t.Errorf("render missing the n/a footnote:\n%s", out)
	}
}

// TestShortTraceCellsRenderNA is the report-level half of the
// short-trace regression: a truncated trace must fail every cell with
// an ErrShortTrace-classified error and poison the report with n/a, not
// print warmup-contaminated numbers.
func TestShortTraceCellsRenderNA(t *testing.T) {
	var failed []error
	s := NewSession(Options{
		Warm: 1e6, Measure: 1e6, MaxInsts: 10_000, Workers: 1,
		Progress: func(u RunUpdate) {
			if u.Err != nil {
				failed = append(failed, u.Err)
			}
		},
	})
	e, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Run(s)

	if rep.NACells() == 0 {
		t.Fatal("short traces produced a clean-looking report")
	}
	for _, row := range rep.Rows {
		for _, v := range row.Values {
			if !math.IsNaN(v) {
				t.Errorf("short-trace cell %q holds %v, want NaN", row.Label, v)
			}
		}
	}
	if len(failed) == 0 {
		t.Error("progress updates never carried the cell error")
	}
	for _, err := range failed {
		if !errors.Is(err, ebcperr.ErrShortTrace) {
			t.Errorf("cell error %v not classified ErrShortTrace", err)
		}
	}
	if s.Failures() != len(failed) {
		t.Errorf("Failures = %d, want %d", s.Failures(), len(failed))
	}
	if !strings.Contains(rep.String(), naNote) {
		t.Error("render missing the n/a footnote")
	}
}

// TestValidReportHasNoFootnote pins the byte-identical guarantee for
// healthy runs: no n/a cells, no footnote.
func TestValidReportHasNoFootnote(t *testing.T) {
	s := NewSession(Options{Warm: 5e4, Measure: 5e4, Workers: 1})
	e, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Run(s)
	if rep.NACells() != 0 {
		t.Errorf("valid run produced %d n/a cells", rep.NACells())
	}
	if strings.Contains(rep.String(), naNote) {
		t.Error("valid report carries the n/a footnote")
	}
	if s.Failures() != 0 {
		t.Errorf("valid run counted %d failures", s.Failures())
	}
}
