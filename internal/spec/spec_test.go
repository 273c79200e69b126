package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
)

// validSweep is a fully featured sim spec: explicit columns, a
// per-benchmark group, baselines, sim tweaks, reference values with a
// tolerance band.
const validSweep = `{
  "schema": "ebcp.spec/v1",
  "id": "sweep",
  "title": "A degree sweep",
  "kind": "sim",
  "warm_insts": 300000,
  "measure_insts": 200000,
  "benchmarks": ["Database", "TPC-W"],
  "report": {
    "title": "Improvement vs degree",
    "unit": "% improvement over no prefetching",
    "notes": ["a note"],
    "reference": [{"label": "Database", "values": [34], "tolerance_pct": 40}]
  },
  "columns": {"labels": ["deg 1", "deg 2"]},
  "cells": {
    "base": {"key": "base/{bench}", "prefetcher": {"name": "none"}},
    "d1": {
      "key": "sweep/{bench}/d1",
      "prefetcher": {"name": "ebcp", "params": {"degree": 1}},
      "baseline": "base",
      "sim": {"pb_entries": 1024}
    },
    "d2": {
      "key": "sweep/{bench}/d2",
      "prefetcher": {"name": "ebcp", "params": {"degree": 2}},
      "baseline": "base"
    }
  },
  "rows": [
    {
      "per_benchmark": true,
      "rows": [{"label": "{bench}", "metric": "improvement_pct", "cells": ["d1", "d2"]}]
    }
  ]
}`

// validCMP is a minimal cmp spec with benchmark columns.
const validCMP = `{
  "schema": "ebcp.spec/v1",
  "id": "cmp2",
  "title": "Two-core speedup",
  "kind": "cmp",
  "report": {"title": "Speedup over the two-core baseline"},
  "columns": {"benchmarks": true},
  "cells": {
    "base": {"key": "cmpbase/{bench}/2", "prefetcher": {"name": "none"}, "cores": 2},
    "ebcp": {"key": "cmpebcp/{bench}/2", "prefetcher": {"name": "ebcp"}, "baseline": "base", "cores": 2}
  },
  "rows": [
    {"rows": [{"label": "EBCP", "metric": "speedup_pct", "cells": ["ebcp"]}]}
  ]
}`

func decodeValid(t *testing.T, src string) SpecV1 {
	t.Helper()
	sp, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatalf("decoding valid spec: %v", err)
	}
	return sp
}

// TestDecodeValid checks the two seed shapes decode and carry their
// fields through.
func TestDecodeValid(t *testing.T) {
	sp := decodeValid(t, validSweep)
	if sp.ID != "sweep" || sp.Kind != "sim" || len(sp.Cells) != 3 {
		t.Errorf("decoded spec mangled: id=%q kind=%q cells=%d", sp.ID, sp.Kind, len(sp.Cells))
	}
	if sp.Report.Reference[0].TolerancePct != 40 {
		t.Errorf("tolerance_pct = %g, want 40", sp.Report.Reference[0].TolerancePct)
	}
	if sp.WarmInsts != 300000 || sp.MeasureInsts != 200000 {
		t.Errorf("windows = %d/%d", sp.WarmInsts, sp.MeasureInsts)
	}
	cmp := decodeValid(t, validCMP)
	if cmp.Kind != "cmp" || cmp.Cells["ebcp"].Cores != 2 {
		t.Errorf("cmp spec mangled: kind=%q cores=%d", cmp.Kind, cmp.Cells["ebcp"].Cores)
	}
}

// encoded returns a spec's canonical bytes, as metrics.WriteJSON
// writes them.
func encoded(sp SpecV1) ([]byte, error) {
	var b bytes.Buffer
	err := metrics.WriteJSON(&b, sp)
	return b.Bytes(), err
}

// TestCanonicalRoundTrip: encoding is byte-stable — one canonicalization
// pass reaches a fixed point, and decode(canonical) preserves the spec.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, src := range []string{validSweep, validCMP} {
		sp := decodeValid(t, src)
		c1, err := encoded(sp)
		if err != nil {
			t.Fatal(err)
		}
		sp2, err := Decode(bytes.NewReader(c1))
		if err != nil {
			t.Fatalf("canonical form fails to decode: %v\n%s", err, c1)
		}
		c2, err := encoded(sp2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Errorf("canonical form is not a fixed point:\n%s\nvs\n%s", c1, c2)
		}
		if sp2.ID != sp.ID || len(sp2.Cells) != len(sp.Cells) || len(sp2.Rows) != len(sp.Rows) {
			t.Errorf("round trip lost content: %+v vs %+v", sp2, sp)
		}
	}
}

// mutate reparses the valid sweep spec as loose JSON, applies one edit,
// and returns the re-marshaled document, so each negative case states
// only its delta.
func mutate(t *testing.T, src string, edit func(doc map[string]any)) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodeRejects drives every validation rule through one mutation
// each; all must fail with ErrInvalidConfig and a message naming the
// problem.
func TestDecodeRejects(t *testing.T) {
	cell := func(doc map[string]any, name string) map[string]any {
		return doc["cells"].(map[string]any)[name].(map[string]any)
	}
	row := func(doc map[string]any) map[string]any {
		group := doc["rows"].([]any)[0].(map[string]any)
		return group["rows"].([]any)[0].(map[string]any)
	}
	cases := []struct {
		name string
		edit func(doc map[string]any)
		want string
	}{
		{"wrong schema", func(d map[string]any) { d["schema"] = "ebcp.report/v1" }, "unsupported schema"},
		{"bad id", func(d map[string]any) { d["id"] = "Fig 4!" }, "id must match"},
		{"missing title", func(d map[string]any) { d["title"] = "" }, "title"},
		{"bad kind", func(d map[string]any) { d["kind"] = "simulate" }, "kind"},
		{"both column axes", func(d map[string]any) {
			d["columns"] = map[string]any{"benchmarks": true, "labels": []any{"a", "b"}}
		}, "exactly one"},
		{"neither column axis", func(d map[string]any) { d["columns"] = map[string]any{} }, "exactly one"},
		{"duplicate benchmark", func(d map[string]any) { d["benchmarks"] = []any{"Database", "Database"} }, "unique"},
		{"tolerance out of range", func(d map[string]any) {
			ref := d["report"].(map[string]any)["reference"].([]any)[0].(map[string]any)
			ref["tolerance_pct"] = -1.0
		}, "tolerance_pct"},
		{"no cells", func(d map[string]any) { d["cells"] = map[string]any{} }, "at least one cell"},
		{"key without placeholder", func(d map[string]any) { cell(d, "d1")["key"] = "sweep/Database/d1" }, "{bench}"},
		{"duplicate cell keys", func(d map[string]any) { cell(d, "d2")["key"] = "sweep/{bench}/d1" }, "share key"},
		{"missing prefetcher", func(d map[string]any) { cell(d, "d1")["prefetcher"] = map[string]any{} }, "prefetcher name"},
		{"dangling baseline", func(d map[string]any) { cell(d, "d1")["baseline"] = "ghost" }, "not a cell"},
		{"cores in sim spec", func(d map[string]any) { cell(d, "d1")["cores"] = 2.0 }, "cores"},
		{"negative sim tweak", func(d map[string]any) {
			cell(d, "d1")["sim"] = map[string]any{"pb_entries": -4.0}
		}, "non-negative"},
		{"no rows", func(d map[string]any) { d["rows"] = []any{} }, "row group"},
		{"explicit columns need per_benchmark", func(d map[string]any) {
			d["rows"].([]any)[0].(map[string]any)["per_benchmark"] = false
		}, "per_benchmark"},
		{"unknown metric", func(d map[string]any) { row(d)["metric"] = "ipc" }, "unknown metric"},
		{"cmp metric in sim spec", func(d map[string]any) { row(d)["metric"] = "speedup_pct" }, "needs kind"},
		{"cell count mismatch", func(d map[string]any) { row(d)["cells"] = []any{"d1"} }, "one per column"},
		{"unknown cell", func(d map[string]any) { row(d)["cells"] = []any{"d1", "ghost"} }, "unknown cell"},
		{"relative metric without baseline", func(d map[string]any) { delete(cell(d, "d1"), "baseline") }, "baseline"},
		{"unknown top-level field", func(d map[string]any) { d["seed"] = 1.0 }, "unknown field"},
		{"data after the spec", nil, "data after"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(validSweep + " garbage")
			if c.edit != nil {
				data = mutate(t, validSweep, c.edit)
			}
			_, err := Decode(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("decoded despite %s", c.name)
			}
			if !errors.Is(err, ebcperr.ErrInvalidConfig) {
				t.Errorf("error not ErrInvalidConfig: %v", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestDecodeRejectsCMPShapes covers the cmp-kind cell rules.
func TestDecodeRejectsCMPShapes(t *testing.T) {
	cases := []struct {
		name string
		edit func(doc map[string]any)
		want string
	}{
		{"missing cores", func(d map[string]any) {
			delete(d["cells"].(map[string]any)["ebcp"].(map[string]any), "cores")
		}, "cores >= 1"},
		{"sim tweaks on cmp cell", func(d map[string]any) {
			d["cells"].(map[string]any)["ebcp"].(map[string]any)["sim"] = map[string]any{"pb_entries": 16.0}
		}, "not supported"},
		{"placeholder label outside per-benchmark group", func(d map[string]any) {
			group := d["rows"].([]any)[0].(map[string]any)
			group["rows"].([]any)[0].(map[string]any)["label"] = "{bench}: EBCP"
		}, "per-benchmark"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := mutate(t, validCMP, c.edit)
			if _, err := Decode(bytes.NewReader(data)); err == nil {
				t.Fatalf("decoded despite %s", c.name)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// FuzzDecodeRobust is the raw-bytes robustness target: any input
// either fails with a typed error or decodes to a spec whose canonical
// form is a byte-stable fixed point.
func FuzzDecodeRobust(f *testing.F) {
	f.Add([]byte(validSweep))
	f.Add([]byte(validCMP))
	f.Add([]byte(`{"schema": "ebcp.spec/v1"}`))
	f.Add([]byte(`{"schema": "ebcp.report/v1"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"schema": "ebcp.spec/v1", "id": "x", "unknown": 1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ebcperr.ErrInvalidConfig) {
				t.Fatalf("rejection not ErrInvalidConfig: %v", err)
			}
			return
		}
		c1, err := encoded(sp)
		if err != nil {
			t.Fatalf("accepted spec fails to encode: %v", err)
		}
		sp2, err := Decode(bytes.NewReader(c1))
		if err != nil {
			t.Fatalf("canonical form of accepted spec fails to decode: %v\n%s", err, c1)
		}
		c2, err := encoded(sp2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form not a fixed point:\n%s\nvs\n%s", c1, c2)
		}
	})
}
