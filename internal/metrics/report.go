package metrics

import (
	"encoding/json"
	"errors"
	"io"

	"ebcp/internal/ebcperr"
)

// SchemaV1 identifies version 1 of the machine-readable report shape.
// Any field added, removed or renamed in ReportV1 (or anything it
// embeds) requires a new schema string; DecodeReportV1 rejects unknown
// fields precisely so such drift fails loudly instead of silently.
const SchemaV1 = "ebcp.report/v1"

// ConfigV1 records the simulation parameters a report's runs used —
// enough to tell two reports apart before diffing their numbers.
type ConfigV1 struct {
	WarmInsts    uint64  `json:"warm_insts"`
	MeasureInsts uint64  `json:"measure_insts"`
	PBEntries    int     `json:"pb_entries"`
	ReadGBps     float64 `json:"read_gbps"`
	WriteGBps    float64 `json:"write_gbps"`
}

// RunV1 is one simulation in a report: its identity, configuration, the
// full raw-counter snapshot and the derived paper metrics.
type RunV1 struct {
	// Benchmark is the workload name; Role distinguishes the "measured"
	// run from its no-prefetching "baseline".
	Benchmark string   `json:"benchmark"`
	Role      string   `json:"role"`
	Config    ConfigV1 `json:"config"`
	Raw       Snapshot `json:"raw"`
	Derived   Derived  `json:"derived"`
}

// ComparisonV1 relates a measured run to its baseline.
type ComparisonV1 struct {
	// ImprovementPct is CPIbase/CPI - 1 in percent (the paper's primary
	// metric); EPIReductionPct is the relative epoch-rate reduction.
	ImprovementPct  float64 `json:"improvement_pct"`
	EPIReductionPct float64 `json:"epi_reduction_pct"`
}

// GridRowV1 is one row of an experiment grid. Values align with the
// grid's Columns; a nil value is a cell that could not be produced (a
// failed or cancelled simulation — the JSON form of the text renderer's
// "n/a", since NaN is not representable in JSON).
type GridRowV1 struct {
	Label  string     `json:"label"`
	Values []*float64 `json:"values"`
}

// GridV1 is one experiment's table in machine-readable form: the same
// rows, columns and paper-reference values the text renderer prints.
type GridV1 struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Unit    string      `json:"unit,omitempty"`
	Columns []string    `json:"columns"`
	Rows    []GridRowV1 `json:"rows"`
	Paper   []GridRowV1 `json:"paper,omitempty"`
	Notes   []string    `json:"notes,omitempty"`
	NACells int         `json:"na_cells"`
}

// ReportV1 is the schema-versioned machine-readable report every
// command emits under -json: ebcpsim fills Runs (and Comparison when a
// baseline ran), ebcpexp fills Grids. Field order is part of the
// schema — encoding/json serializes struct fields in declaration
// order, so reports from different tools diff cleanly.
type ReportV1 struct {
	Schema     string        `json:"schema"`
	Tool       string        `json:"tool"`
	Runs       []RunV1       `json:"runs,omitempty"`
	Comparison *ComparisonV1 `json:"comparison,omitempty"`
	Grids      []GridV1      `json:"grids,omitempty"`
}

// WriteJSON is the one JSON encoder every emitted document goes through
// (reports, specs, table snapshots, daemon replies): two-space-indented,
// trailing newline. Keeping a single encoder guarantees every emitted
// document round-trips byte-for-byte through decode + WriteJSON.
func WriteJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadJSON is the one JSON decoder every accepted document goes through
// (reports, specs, requests, daemon stats, parameter blocks): it decodes
// one value from r into v, rejecting unknown fields (schema drift must
// fail loudly, not decode partially) and anything but whitespace after
// the value (a second document or stray bytes are not part of the
// first).
func ReadJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// errTrailingData is ReadJSON's rejection of bytes after the value;
// callers classify it with the rest of their decode failures.
var errTrailingData = errors.New("data after the JSON value")

// DecodeReportV1 parses a report through ReadJSON, rejecting any schema
// string other than SchemaV1. Every error matches ebcperr.ErrBadReport.
func DecodeReportV1(r io.Reader) (ReportV1, error) {
	var rep ReportV1
	if err := ReadJSON(r, &rep); err != nil {
		return ReportV1{}, ebcperr.Wrap(ebcperr.ErrBadReport, "metrics: decoding report: %v", err)
	}
	if rep.Schema != SchemaV1 {
		return ReportV1{}, ebcperr.Wrap(ebcperr.ErrBadReport, "metrics: unsupported report schema %q (want %q)", rep.Schema, SchemaV1)
	}
	return rep, nil
}
