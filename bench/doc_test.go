package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func sampleDoc() DocV1 {
	return DocV1{
		Schema: schemaV1, GoVersion: "go1.x", NumCPU: 2, GOMAXPROCS: 2, Seed: 1, Seconds: 10,
		Workloads: []WorkloadV1{{
			Name: "w", Fingerprint: "ab", Attempted: 3,
			Metrics: []MetricV1{{Name: "setup_s", Scope: scopeEndToEnd, Unit: "s", Better: "lower", Bound: 0.25, N: 3, Median: 1, Q1: 0.9, Q3: 1.1}},
		}},
	}
}

func TestDecodeDocRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeDoc(&buf, sampleDoc()); err != nil {
		t.Fatal(err)
	}
	got, err := decodeDoc(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleDoc()) {
		t.Errorf("round trip changed the document:\n got %+v\nwant %+v", got, sampleDoc())
	}
}

func TestDecodeDocIsStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := writeDoc(&buf, sampleDoc()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	for name, doc := range map[string]string{
		"unknown field": strings.Replace(good, `"seed"`, `"sead": 1, "seed"`, 1),
		"other schema":  strings.Replace(good, schemaV1, "ebcp.benchrun/v0", 1),
		"trailing data": good + "{}",
		"not json":      "{",
	} {
		if _, err := decodeDoc(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// allMetrics is a workload reporting every metric all workloads report.
func allMetrics(name string) WorkloadV1 {
	w := WorkloadV1{Name: name, Attempted: 2}
	for _, d := range metricDefs {
		if d.All {
			w.Metrics = append(w.Metrics, MetricV1{Name: d.Name, Scope: d.Scope, Unit: d.Unit, Median: 1.5})
		}
	}
	return w
}

func TestSummaryLine(t *testing.T) {
	line, err := summaryLine([]WorkloadV1{allMetrics("w")}, scopeEndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(line, []byte("\n")) != 1 || !bytes.HasSuffix(line, []byte("\n")) {
		t.Errorf("summary is not one line: %q", line)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("summary keys %v, want correct, attempted, failed, metrics", keys)
	}
	var l lineV1
	if err := json.Unmarshal(line, &l); err != nil {
		t.Fatal(err)
	}
	for _, d := range metricDefs {
		_, ok := l.Metrics[d.Name]
		if want := d.All && d.Scope == scopeEndToEnd; ok != want {
			t.Errorf("metric %s in the end-to-end summary: %v, want %v", d.Name, ok, want)
		}
	}
	if !l.Correct || l.Attempted != 2 {
		t.Errorf("summary %+v", l)
	}

	w := allMetrics("w")
	w.Failed = 1
	if line, _ := summaryLine([]WorkloadV1{w}, scopeLayer); !bytes.Contains(line, []byte(`"correct":false`)) {
		t.Errorf("a failed check still reads correct: %s", line)
	}
	w.Metrics = w.Metrics[1:]
	if _, err := summaryLine([]WorkloadV1{w}, scopeEndToEnd); err == nil {
		t.Error("a missing metric went unnoticed")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json — what the benchmark declares to
// its runner — equal to the workloads and metrics the code reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got benchmarkFile
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range metricDefs {
		switch {
		case d.All && d.Scope == scopeEndToEnd:
			want.EndToEnd = append(want.EndToEnd, struct {
				Name   string  `json:"name"`
				Unit   string  `json:"unit"`
				Better string  `json:"better"`
				Bound  float64 `json:"bound"`
			}{d.Name, d.Unit, d.Better, d.Bound})
		case d.All:
			want.PerLayer = append(want.PerLayer, struct {
				Name   string `json:"name"`
				Unit   string `json:"unit"`
				Better string `json:"better"`
			}{d.Name, d.Unit, d.Better})
		}
	}
	if !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the code; want:\n%s", b)
	}
}
