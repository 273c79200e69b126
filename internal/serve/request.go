package serve

import (
	"bytes"
	"encoding/json"
	"io"

	"ebcp/internal/ebcperr"
	"ebcp/internal/exp"
	"ebcp/internal/metrics"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// RequestSchemaV1 identifies version 1 of the experiment-request body
// POSTed to /v1/run. Like every schema in this repo it is decoded
// strictly: unknown fields are rejected so drift fails loudly.
const RequestSchemaV1 = "ebcp.runreq/v1"

// RunRequestV1 is the body of POST /v1/run: which experiment to run and
// the semantic options of the session that runs it. The zero value of
// every optional field means "the default" — and, because cache keys
// digest *resolved* values, a request spelling out a default hits the
// same cells as one omitting it.
type RunRequestV1 struct {
	Schema string `json:"schema"`
	// Experiment names a canonical experiment ("table1", "fig4", ...).
	// Spec instead inlines a whole user-authored ebcp.spec/v1 document,
	// compiled through the registry like `ebcpexp -spec`. Exactly one of
	// the two must be set.
	Experiment string          `json:"experiment,omitempty"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	// WarmInsts/MeasureInsts override the paper's 150M/100M windows
	// (0 keeps them). MaxInsts truncates every cell's trace (0 = no
	// limit).
	WarmInsts    uint64 `json:"warm_insts,omitempty"`
	MeasureInsts uint64 `json:"measure_insts,omitempty"`
	MaxInsts     uint64 `json:"max_insts,omitempty"`
	// BenchScale shrinks the workload working sets by this factor in
	// (0, 1] via workload.Scaled — the fast preview knob. 0 means full
	// size.
	BenchScale float64 `json:"bench_scale,omitempty"`
	// TimeoutMS bounds the request's wall-clock time; cells not
	// simulated when it expires render as n/a and the request fails
	// with a 499-class error. 0 means the server's default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DecodeRunRequest parses a request body through metrics.ReadJSON
// (unknown fields and trailing data are rejected), then any schema
// other than RequestSchemaV1.
func DecodeRunRequest(r io.Reader) (RunRequestV1, error) {
	var rq RunRequestV1
	if err := metrics.ReadJSON(r, &rq); err != nil {
		return RunRequestV1{}, ebcperr.Invalidf("serve: decoding request: %v", err)
	}
	if rq.Schema != RequestSchemaV1 {
		return RunRequestV1{}, ebcperr.Invalidf("serve: unsupported request schema %q (want %q)", rq.Schema, RequestSchemaV1)
	}
	return rq, nil
}

// resolved is the experiment a request runs: a canonical id, or an
// inline ebcp.spec/v1 document compiled through the registry. For
// inline specs, sp is the decoded spec: its windows apply when the
// request sets none of its own, and its benchmark restriction survives
// bench_scale. The store keys cells by content, so an inline spec's
// cells share results with any other spec's equal cells.
type resolved struct {
	e  exp.Experiment
	sp spec.SpecV1
}

// resolve produces the experiment this request runs.
func (rq RunRequestV1) resolve() (resolved, error) {
	if len(rq.Spec) == 0 {
		e, err := exp.ByID(rq.Experiment)
		return resolved{e: e}, err
	}
	sp, err := spec.Decode(bytes.NewReader(rq.Spec))
	if err != nil {
		return resolved{}, err
	}
	e, err := exp.FromSpec(sp)
	if err != nil {
		return resolved{}, err
	}
	return resolved{e: e, sp: sp}, nil
}

// validate checks the fields that do not need server configuration and
// returns the resolved experiment, so a request is decoded and compiled
// once.
func (rq RunRequestV1) validate() (resolved, error) {
	switch {
	case rq.Experiment == "" && len(rq.Spec) == 0:
		return resolved{}, ebcperr.Invalidf("serve: request names no experiment (set experiment or an inline spec)")
	case rq.Experiment != "" && len(rq.Spec) > 0:
		return resolved{}, ebcperr.Invalidf("serve: experiment and spec are mutually exclusive")
	}
	res, err := rq.resolve()
	if err != nil {
		return resolved{}, err
	}
	if rq.BenchScale < 0 || rq.BenchScale > 1 {
		return resolved{}, ebcperr.Invalidf("serve: bench_scale %g must be in (0, 1] (or 0 for full size)", rq.BenchScale)
	}
	if rq.TimeoutMS < 0 {
		return resolved{}, ebcperr.Invalidf("serve: timeout_ms %d must be non-negative", rq.TimeoutMS)
	}
	return res, nil
}

// options maps a validated request onto the exp.Options its session
// runs with. simWorkers is the server's per-request simulation
// parallelism; the shared cache is attached by the worker. restricted
// is an inline spec's benchmarks field: bench_scale materializes a
// session-level benchmark override, which would otherwise silently
// widen a restricted spec back to the full paper set.
func (rq RunRequestV1) options(cfg Config, restricted []string) (exp.Options, error) {
	opts := exp.Options{
		Warm:     rq.WarmInsts,
		Measure:  rq.MeasureInsts,
		MaxInsts: rq.MaxInsts,
		Workers:  cfg.SimWorkers,
	}
	if rq.BenchScale > 0 && rq.BenchScale < 1 {
		base := workload.All()
		if len(restricted) > 0 {
			base = base[:0:0]
			for _, name := range restricted {
				b, err := workload.ByName(name)
				if err != nil {
					return exp.Options{}, err
				}
				base = append(base, b)
			}
		}
		var scaled []workload.Params
		for _, b := range base {
			s, err := workload.Scaled(b, rq.BenchScale)
			if err != nil {
				return exp.Options{}, err
			}
			scaled = append(scaled, s)
		}
		opts.Benchmarks = scaled
	}
	return opts, nil
}
