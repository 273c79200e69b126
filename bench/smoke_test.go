package main

import (
	"io"
	"testing"
	"time"
)

// TestSmoke runs every workload, traced, at tiny windows and a short timed
// phase: all checks must pass and every declared metric must be reported.
func TestSmoke(t *testing.T) {
	s := settings{seed: 2, timed: 100 * time.Millisecond, traced: true, minReps: 2, tiny: true, log: io.Discard}
	doc, err := runWorkloads(s, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if w.Attempted == 0 || w.Failed != 0 || w.Fingerprint == "" {
			t.Errorf("%s: %d of %d operations failed (fingerprint %q): %v", w.Name, w.Failed, w.Attempted, w.Fingerprint, w.Failures)
		}
		for _, m := range w.Metrics {
			if m.Scope == scopeEndToEnd && m.value() <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, m.value())
			}
		}
	}
	for _, scope := range []string{scopeEndToEnd, scopeLayer} {
		if _, err := summaryLine(doc.Workloads, scope); err != nil {
			t.Error(err)
		}
	}
}
