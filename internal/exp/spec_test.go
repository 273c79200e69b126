package exp

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"ebcp/internal/ebcperr"
	"ebcp/internal/registry"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// TestCanonicalSpecsMatchFiles pins the committed spec files to the
// loader: the embedded set equals canonicalOrder, every file is stored
// in canonical encoding (so re-encoding a decoded spec reproduces the
// file byte for byte), and All() lists them in paper order.
func TestCanonicalSpecsMatchFiles(t *testing.T) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(canonicalOrder) {
		t.Fatalf("%d embedded specs, canonicalOrder has %d", len(entries), len(canonicalOrder))
	}
	for _, ent := range entries {
		data, err := specFS.ReadFile("specs/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		canon, err := spec.Canonical(sp)
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		if !bytes.Equal(data, canon) {
			t.Errorf("%s is not in canonical encoding; re-encode it with spec.Canonical", ent.Name())
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, ","), strings.Join(canonicalOrder, ","); got != want {
		t.Errorf("All() order = %s, want %s", got, want)
	}
	if _, err := CanonicalSpec("table1"); err != nil {
		t.Errorf("CanonicalSpec(table1): %v", err)
	}
	if _, err := CanonicalSpec("fig99"); err == nil || !errors.Is(err, ebcperr.ErrInvalidConfig) {
		t.Errorf("CanonicalSpec(fig99) = %v, want ErrInvalidConfig", err)
	}
}

// TestCanonicalSpecsMatchRegistry keeps internal/registry and the
// committed canonical specs from drifting apart: the spec files are
// data, so the compiler cannot catch a registry rename stranding one.
// It checks both directions:
//
//   - every prefetcher a spec's cells name is registered, and every
//     workload its benchmarks field names is in workload.All;
//   - every registered prefetcher is used by some spec (the canonical
//     set includes the full Figure 9 comparison, so an unused
//     registration means the coverage, or the registration, is wrong);
//   - every spec's id equals its file name, which also makes ids unique.
func TestCanonicalSpecsMatchRegistry(t *testing.T) {
	used := map[string]bool{}
	for _, name := range registry.PrefetcherNames() {
		used[name] = false
	}
	workloads := map[string]bool{}
	for _, b := range workload.All() {
		workloads[b.Name] = true
	}
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := specFS.ReadFile("specs/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Decode(bytes.NewReader(data))
		if err != nil {
			t.Errorf("%s: %v", ent.Name(), err)
			continue
		}
		if want := strings.TrimSuffix(ent.Name(), ".json"); sp.ID != want {
			t.Errorf("%s declares id %q; the id must equal the file name", ent.Name(), sp.ID)
		}
		cells := make([]string, 0, len(sp.Cells))
		for name := range sp.Cells {
			cells = append(cells, name)
		}
		sort.Strings(cells)
		for _, cell := range cells {
			name := sp.Cells[cell].Prefetcher.Name
			if _, ok := used[name]; !ok {
				t.Errorf("%s cell %q names unregistered prefetcher %q", ent.Name(), cell, name)
			}
			used[name] = true
		}
		for _, b := range sp.Benchmarks {
			if !workloads[b] {
				t.Errorf("%s names unregistered workload %q", ent.Name(), b)
			}
		}
	}
	for _, name := range registry.PrefetcherNames() {
		if !used[name] {
			t.Errorf("registered prefetcher %q is used by no canonical spec", name)
		}
	}
}

// specFromJSON decodes an inline spec document for the negative tests.
func specFromJSON(t *testing.T, src string) spec.SpecV1 {
	t.Helper()
	sp, err := spec.Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

const minimalSpec = `{
  "schema": "ebcp.spec/v1",
  "id": "mini",
  "title": "A minimal sweep",
  "kind": "sim",
  "report": {"title": "Improvement"},
  "columns": {"benchmarks": true},
  "cells": {
    "base": {"key": "base/{bench}", "prefetcher": {"name": "none"}},
    "x": {"key": "mini/{bench}/x", "prefetcher": {"name": "ebcp"}, "baseline": "base"}
  },
  "rows": [
    {"rows": [{"label": "EBCP", "metric": "improvement_pct", "cells": ["x"]}]}
  ]
}`

// TestFromSpecRejectsUnknownRegistryNames: a spec may only reference
// registered contenders and workloads; the error names the offender.
func TestFromSpecRejectsUnknownRegistryNames(t *testing.T) {
	sp := specFromJSON(t, minimalSpec)
	cell := sp.Cells["x"]
	cell.Prefetcher.Name = "markov"
	sp.Cells["x"] = cell
	if _, err := FromSpec(sp); err == nil {
		t.Error("unknown prefetcher name compiled")
	} else if !errors.Is(err, ebcperr.ErrInvalidConfig) || !strings.Contains(err.Error(), "markov") {
		t.Errorf("unknown-prefetcher error should be ErrInvalidConfig naming the offender: %v", err)
	}

	sp = specFromJSON(t, minimalSpec)
	sp.Benchmarks = []string{"SPECweb99"}
	if _, err := FromSpec(sp); err == nil {
		t.Error("unknown workload name compiled")
	} else if !errors.Is(err, ebcperr.ErrInvalidConfig) || !strings.Contains(err.Error(), "SPECweb99") {
		t.Errorf("unknown-workload error should be ErrInvalidConfig naming the offender: %v", err)
	}
}

// TestFromSpecValidates: FromSpec re-validates its input, so a spec
// built in code (not through Decode) still can't smuggle in a bad shape.
func TestFromSpecValidates(t *testing.T) {
	sp := specFromJSON(t, minimalSpec)
	sp.Kind = "warp"
	if _, err := FromSpec(sp); err == nil || !errors.Is(err, ebcperr.ErrInvalidConfig) {
		t.Errorf("FromSpec on an invalid spec = %v, want ErrInvalidConfig", err)
	}
}

// TestFromSpecRunsRestrictedBenchmarks: a spec's benchmarks field limits
// the grid when the session has no override of its own.
func TestFromSpecRunsRestrictedBenchmarks(t *testing.T) {
	sp := specFromJSON(t, minimalSpec)
	sp.Benchmarks = []string{"SPECjbb2005"}
	e, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{Warm: 1e6, Measure: 1e6})
	rep := e.Run(s)
	if len(rep.Columns) != 1 || rep.Columns[0] != "SPECjbb2005" {
		t.Fatalf("columns = %v, want the spec's single benchmark", rep.Columns)
	}
	if len(rep.Rows) != 1 || len(rep.Rows[0].Values) != 1 {
		t.Fatalf("rows = %+v, want one row with one value", rep.Rows)
	}
	if s.Runs() != 2 {
		t.Errorf("Runs() = %d, want 2 (baseline + cell on one benchmark)", s.Runs())
	}
}

// TestFromSpecBadCellParamsRenderNA: a cell whose parameter block the
// contender rejects fails like any other failed cell — its value renders
// n/a and the session reports the failure, but the rest of the report
// survives.
func TestFromSpecBadCellParamsRenderNA(t *testing.T) {
	src := strings.Replace(minimalSpec,
		`"prefetcher": {"name": "ebcp"}`,
		`"prefetcher": {"name": "ebcp", "params": {"degree": -5}}`, 1)
	sp := specFromJSON(t, src)
	sp.Benchmarks = []string{"SPECjbb2005"}
	e, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{Warm: 1e6, Measure: 1e6})
	rep := e.Run(s)
	if rep.NACells() != 1 {
		t.Errorf("NACells() = %d, want 1 (the misconfigured cell)", rep.NACells())
	}
	if s.FirstError() == nil || !errors.Is(s.FirstError(), ebcperr.ErrInvalidConfig) {
		t.Errorf("FirstError() = %v, want the cell's ErrInvalidConfig", s.FirstError())
	}
}

// TestFromSpecUnusableBandwidthRendersNA: a cell whose bandwidth tweak
// would hold the bus for more than 2^32 cycles per line fails at
// construction as ErrInvalidConfig, so it renders n/a instead of a
// number from an overflowed occupancy.
func TestFromSpecUnusableBandwidthRendersNA(t *testing.T) {
	src := strings.Replace(minimalSpec,
		`"prefetcher": {"name": "ebcp"}`,
		`"prefetcher": {"name": "ebcp"}, "sim": {"read_gbps": 1e-300}`, 1)
	sp := specFromJSON(t, src)
	sp.Benchmarks = []string{"SPECjbb2005"}
	e, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{Warm: 1e5, Measure: 1e5})
	rep := e.Run(s)
	if rep.NACells() != 1 {
		t.Errorf("NACells() = %d, want 1 (the 1e-300 GB/s cell)", rep.NACells())
	}
	if err := s.FirstError(); err == nil || !errors.Is(err, ebcperr.ErrInvalidConfig) || !strings.Contains(err.Error(), "holds the bus") {
		t.Errorf("FirstError() = %v, want the memory system's ErrInvalidConfig", err)
	}
}

// TestFromSpecBadFilterBlockRendersNA: the same contract for the
// optional filter wrapper — a cell whose filter block the registry
// rejects (unknown field, strict decode) renders n/a instead of
// aborting the report.
func TestFromSpecBadFilterBlockRendersNA(t *testing.T) {
	src := strings.Replace(minimalSpec,
		`"prefetcher": {"name": "ebcp"}`,
		`"prefetcher": {"name": "ebcp", "filter": {"thresholdpct": 20}}`, 1)
	sp := specFromJSON(t, src)
	sp.Benchmarks = []string{"SPECjbb2005"}
	e, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{Warm: 1e6, Measure: 1e6})
	rep := e.Run(s)
	if rep.NACells() != 1 {
		t.Errorf("NACells() = %d, want 1 (the bad filter block)", rep.NACells())
	}
	if s.FirstError() == nil || !errors.Is(s.FirstError(), ebcperr.ErrInvalidConfig) {
		t.Errorf("FirstError() = %v, want the filter block's ErrInvalidConfig", s.FirstError())
	}
}
