package metrics

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ebcp/internal/ebcperr"
)

// sampleReport builds a report exercising every ReportV1 branch: runs
// with full snapshots, a comparison, and grids with n/a (nil) cells.
func sampleReport() ReportV1 {
	f := func(v float64) *float64 { return &v }
	snap := consistentSnapshot()
	return ReportV1{
		Schema: SchemaV1,
		Tool:   "test",
		Runs: []RunV1{
			{
				Benchmark: "Database",
				Role:      "measured",
				Config:    ConfigV1{WarmInsts: 1000, MeasureInsts: 2000, PBEntries: 64, ReadGBps: 9.6, WriteGBps: 4.8},
				Raw:       snap,
				Derived:   snap.Derive(),
			},
		},
		Comparison: &ComparisonV1{ImprovementPct: 12.5, EPIReductionPct: 8.25},
		Grids: []GridV1{
			{
				ID:      "table1",
				Title:   "Baseline characteristics",
				Unit:    "CPI",
				Columns: []string{"Database", "TPC-W"},
				Rows: []GridRowV1{
					{Label: "CPI overall", Values: []*float64{f(3.27), nil}},
				},
				Paper: []GridRowV1{
					{Label: "CPI overall", Values: []*float64{f(3.27), f(2.00)}},
				},
				Notes:   []string{"one cell failed"},
				NACells: 1,
			},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	if !strings.HasSuffix(first, "\n") {
		t.Error("WriteJSON output does not end in a newline")
	}

	got, err := DecodeReportV1(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("decode(encode(x)) != x:\ngot  %+v\nwant %+v", got, rep)
	}

	// Re-encoding the decoded report must reproduce the bytes exactly —
	// this is what makes committed goldens stable across the decoder.
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Errorf("encode(decode(encode(x))) differs from encode(x):\n%s\nvs\n%s", buf2.String(), first)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	// Splice an unknown top-level field into otherwise-valid JSON.
	doc := strings.Replace(buf.String(), "\"schema\":", "\"bogus\": 1,\n  \"schema\":", 1)
	if _, err := DecodeReportV1(strings.NewReader(doc)); err == nil {
		t.Error("report with unknown top-level field decoded cleanly")
	}
	// And one nested inside a run's raw snapshot.
	doc = strings.Replace(buf.String(), "\"prefetcher\":", "\"surprise\": true,\n        \"prefetcher\":", 1)
	if _, err := DecodeReportV1(strings.NewReader(doc)); err == nil {
		t.Error("report with unknown nested field decoded cleanly")
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	rep := sampleReport()
	rep.Schema = "ebcp.report/v2"
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	_, err := DecodeReportV1(&buf)
	if err == nil {
		t.Fatal("report with wrong schema decoded cleanly")
	}
	if !strings.Contains(err.Error(), "schema") {
		t.Errorf("error %q does not mention the schema", err)
	}
	if _, err := DecodeReportV1(strings.NewReader("{}")); err == nil {
		t.Error("report with no schema decoded cleanly")
	}
}

// TestDecodeRejectsGarbage: malformed input, unknown fields, a wrong
// schema and data after the report are all ErrBadReport rejections.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, doc := range []string{
		"not json",
		`{"schema": "ebcp.report/v1", "bogus": 1}`,
		`{"schema": "ebcp.report/v2"}`,
		`{"schema": "ebcp.report/v1", "tool": "ebcpsim"}]]`,
		`{"schema": "ebcp.report/v1"} {"schema": "ebcp.report/v1"}`,
	} {
		_, err := DecodeReportV1(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s decoded cleanly", doc)
		} else if !errors.Is(err, ebcperr.ErrBadReport) {
			t.Errorf("%s: error %v is not ErrBadReport", doc, err)
		}
	}
	if _, err := DecodeReportV1(strings.NewReader("{\"schema\": \"ebcp.report/v1\"}\n\t \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
