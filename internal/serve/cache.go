// Package serve is the experiment-serving layer behind cmd/ebcpd: one
// process-wide exp.Cache result store shared by every request's
// session, a bounded FIFO worker pool with backpressure, the HTTP
// handlers speaking ebcp.runreq/v1 in and ebcp.report/v1 out, and the
// serving telemetry exposed on /metrics. DESIGN.md §10 documents the
// cache-keying, eviction and backpressure contracts.
package serve

import (
	"time"

	"ebcp/internal/exp"
)

// NewCache creates the daemon's result store: an exp.Cache evicting
// least-recently-used entries once stored costs exceed budget bytes
// (<= 0 means unbounded), timing every computation with the serving
// clock for the compute_us histogram.
func NewCache(budget int64) *exp.Cache { return exp.NewCache(budget, now) }

// now returns wall-clock time for serving telemetry (queue-wait,
// request- and cell-latency histograms). Serving metrics are
// observational by nature and never feed a deterministic report path:
// every byte of an ebcp.report/v1 response comes from the simulation
// results, not from these clocks.
//
//ebcp:allow determinism serving telemetry is wall-clock by design and never feeds report bytes
func now() time.Time { return time.Now() }
