package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
)

// smallBody returns a fast ebcp.runreq/v1 request: tiny windows over
// 5%-scale workloads, a few milliseconds per cell.
func smallBody(extra string) string {
	return fmt.Sprintf(`{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":200000,"measure_insts":100000,"bench_scale":0.05%s}`, extra)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.String()
}

// TestRunEndpointServesReportAndCaches is the package-level version of
// the CI smoke contract: a POST answers a strictly-decodable
// ebcp.report/v1 grid, and an identical second POST is served from the
// shared cache without simulating anything.
func TestRunEndpointServesReportAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	resp, body := post(t, ts.URL, smallBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	rep, err := metrics.DecodeReportV1(strings.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a strict ebcp.report/v1: %v", err)
	}
	if rep.Tool != "ebcpd" || len(rep.Grids) != 1 || rep.Grids[0].ID != "table1" {
		t.Fatalf("unexpected report shape: tool=%q grids=%d", rep.Tool, len(rep.Grids))
	}
	if rep.Grids[0].NACells != 0 {
		t.Fatalf("grid has %d n/a cells, want 0", rep.Grids[0].NACells)
	}

	st := s.Stats()
	if st.SimRuns == 0 {
		t.Fatal("first request simulated nothing")
	}
	firstRuns := st.SimRuns
	if st.Cache.Misses != firstRuns {
		t.Errorf("cache misses = %d, want %d (one per simulated cell)", st.Cache.Misses, firstRuns)
	}

	resp2, body2 := post(t, ts.URL, smallBody(""))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d", resp2.StatusCode)
	}
	if body2 != body {
		t.Error("identical requests returned different reports")
	}
	st = s.Stats()
	if st.SimRuns != firstRuns {
		t.Errorf("second identical request simulated: runs %d → %d", firstRuns, st.SimRuns)
	}
	if st.Cache.Hits == 0 || st.SimShared == 0 {
		t.Errorf("second request did not hit the shared cache: %+v", st.Cache)
	}

	// A semantically different request misses again.
	post(t, ts.URL, smallBody(`,"max_insts":90000000`))
	if st2 := s.Stats(); st2.Cache.Misses == st.Cache.Misses {
		t.Error("changed options did not change the cache keys")
	}
}

// TestConcurrentIdenticalPostsSimulateOnce: N clients POSTing the same
// request concurrently trigger exactly one simulation per cell —
// in-flight coalescing, not just after-the-fact caching.
func TestConcurrentIdenticalPostsSimulateOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const clients = 4

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL, smallBody(""))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, body %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	cells := st.Cache.Misses
	if st.SimRuns != cells {
		t.Errorf("sim runs = %d, want %d (each cell computed once)", st.SimRuns, cells)
	}
	if lookups := st.Cache.Hits + st.Cache.Joins + st.Cache.Misses; lookups != cells*clients {
		t.Errorf("lookups = %d, want %d", lookups, cells*clients)
	}
	if st.Completed != clients {
		t.Errorf("completed = %d, want %d", st.Completed, clients)
	}
}

// inlineSpec is a minimal ebcp.spec/v1 document (parameterized by EBCP
// degree so tests can make semantically distinct specs that reuse the
// same cell key strings).
func inlineSpec(degree int) string {
	return fmt.Sprintf(`{
	  "schema": "ebcp.spec/v1",
	  "id": "mini",
	  "title": "A minimal sweep",
	  "kind": "sim",
	  "benchmarks": ["SPECjbb2005"],
	  "report": {"title": "Improvement"},
	  "columns": {"benchmarks": true},
	  "cells": {
	    "base": {"key": "base/{bench}", "prefetcher": {"name": "none"}},
	    "x": {"key": "mini/{bench}/x", "prefetcher": {"name": "ebcp", "params": {"degree": %d}}, "baseline": "base"}
	  },
	  "rows": [
	    {"rows": [{"label": "EBCP", "metric": "improvement_pct", "cells": ["x"]}]}
	  ]
	}`, degree)
}

// specBody wraps an inline spec in a fast runreq envelope.
func specBody(spec string) string {
	return fmt.Sprintf(`{"schema":"ebcp.runreq/v1","warm_insts":200000,"measure_insts":100000,"bench_scale":0.05,"spec":%s}`, spec)
}

// TestInlineSpecRunsAndCaches: a request carrying a whole spec instead
// of an experiment id runs it, identical spec requests share cells, and
// two specs binding the same cell key string to different contents do
// NOT collide — the spec's canonical bytes are part of every cell key.
func TestInlineSpecRunsAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	resp, body := post(t, ts.URL, specBody(inlineSpec(8)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	rep, err := metrics.DecodeReportV1(strings.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a strict ebcp.report/v1: %v", err)
	}
	if len(rep.Grids) != 1 || rep.Grids[0].ID != "mini" {
		t.Fatalf("unexpected report shape: grids=%d", len(rep.Grids))
	}
	if rep.Grids[0].NACells != 0 {
		t.Fatalf("grid has %d n/a cells, want 0", rep.Grids[0].NACells)
	}
	// 2 cells × 1 benchmark: the spec's restriction must survive
	// bench_scale (which materializes a session-level benchmark
	// override — it used to widen restricted specs back to all four).
	firstRuns := s.Stats().SimRuns
	if firstRuns != 2 {
		t.Fatalf("inline spec ran %d simulations, want 2 (restricted to one benchmark)", firstRuns)
	}

	// Identical spec → every cell from the shared cache.
	resp2, body2 := post(t, ts.URL, specBody(inlineSpec(8)))
	if resp2.StatusCode != http.StatusOK || body2 != body {
		t.Fatalf("identical inline-spec request: status %d, body match %v", resp2.StatusCode, body2 == body)
	}
	if st := s.Stats(); st.SimRuns != firstRuns || st.SimShared == 0 {
		t.Errorf("identical spec re-simulated: runs %d → %d, shared %d", firstRuns, st.SimRuns, st.SimShared)
	}

	// Same cell key strings, different contender parameters: the store
	// keys cells by content, so the changed cell simulates again and the
	// unchanged baseline is shared.
	resp3, _ := post(t, ts.URL, specBody(inlineSpec(2)))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("differing spec status = %d", resp3.StatusCode)
	}
	if st := s.Stats(); st.SimRuns != firstRuns+1 {
		t.Errorf("a spec differing in one cell ran %d new simulations, want 1 (the baseline is shared)", st.SimRuns-firstRuns)
	}
}

// TestRequestValidation maps malformed requests to their status codes
// through the one shared table.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
		want       int
		mention    string
	}{
		{"bad schema", `{"schema":"nope/v9","experiment":"table1"}`, 400, "unsupported request schema"},
		{"unknown field", `{"schema":"ebcp.runreq/v1","experiment":"table1","zap":1}`, 400, "unknown field"},
		{"no experiment", `{"schema":"ebcp.runreq/v1"}`, 400, "names no experiment"},
		{"unknown experiment", `{"schema":"ebcp.runreq/v1","experiment":"fig99"}`, 400, "unknown experiment"},
		{"experiment and spec together", `{"schema":"ebcp.runreq/v1","experiment":"table1","spec":` + inlineSpec(8) + `}`, 400, "mutually exclusive"},
		{"bad inline spec schema", `{"schema":"ebcp.runreq/v1","spec":{"schema":"nope/v9"}}`, 400, "unsupported schema"},
		{"inline spec unknown prefetcher", `{"schema":"ebcp.runreq/v1","spec":` + strings.Replace(inlineSpec(8), `"ebcp"`, `"markov"`, 1) + `}`, 400, "markov"},
		{"bad scale", `{"schema":"ebcp.runreq/v1","experiment":"table1","bench_scale":2}`, 400, "bench_scale"},
		{"priority is an unknown field", `{"schema":"ebcp.runreq/v1","experiment":"table1","priority":"batch"}`, 400, `unknown field \"priority\"`},
		{"negative timeout", `{"schema":"ebcp.runreq/v1","experiment":"table1","timeout_ms":-5}`, 400, "timeout_ms"},
		{"retired load_corrtab", smallBody(`,"load_corrtab":"t.corrtab"`), 400, `unknown field \"load_corrtab\"`},
		{"not json", `go away`, 400, "decoding request"},
		{"second object after the request", smallBody("") + `{"schema":"ebcp.runreq/v1","experiment":"fig4"}`, 400, "data after"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts.URL, c.body)
			if resp.StatusCode != c.want {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, c.want, body)
			}
			if !strings.Contains(body, c.mention) {
				t.Errorf("body %q does not mention %q", body, c.mention)
			}
		})
	}
}

// TestShortTraceMapsTo422: a trace limit below the warmup window makes
// every cell fail with ErrShortTrace; the response must carry the
// mapped 422, not a generic 500.
func TestShortTraceMapsTo422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts.URL, smallBody(`,"max_insts":1000`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", resp.StatusCode, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run = %d, want 405", resp.StatusCode)
	}
}

// TestBackpressure429: with one worker busy and the queue full, the
// next request is rejected with 429 and a Retry-After header instead of
// queuing without bound.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Two slow, distinct requests: one executing, one queued. Their
	// clients are cancelled at the end so the teardown drain is quick.
	slow := func(n int) string {
		return fmt.Sprintf(`{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":%d,"measure_insts":5000000,"bench_scale":0.05}`, 20_000_000+n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	launch := func(body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}

	launch(slow(1))
	waitFor(t, func() bool { return s.Stats().Inflight == 1 })
	launch(slow(2))
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	resp, body := post(t, ts.URL, slow(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	cancel()
	wg.Wait()
}

// TestDeadline499: a request whose deadline expires answers with the
// 499-style client-cancellation status.
func TestDeadline499(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":30000000,"measure_insts":5000000,"bench_scale":0.05,"timeout_ms":30}`
	resp, out := post(t, ts.URL, body)
	if resp.StatusCode != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, StatusClientClosedRequest, out)
	}
}

// TestDrainRejectsAndHealthzReports: after Drain begins, POSTs get 503
// and /healthz reports draining with 503.
func TestDrainRejectsAndHealthzReports(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, body := post(t, ts.URL, smallBody(""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthzV1
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz while draining = %d %q, want 503 draining", resp.StatusCode, h.Status)
	}
}

// TestQueueIsFIFO drives the queue directly: waiting jobs are handed
// out in admission order.
func TestQueueIsFIFO(t *testing.T) {
	s := &Server{cfg: Config{QueueDepth: 8}.withDefaults(), cache: NewCache(1 << 20)}
	s.cond = sync.NewCond(&s.mu)
	for id := uint64(1); id <= 4; id++ {
		if err := s.enqueue(&job{rq: RunRequestV1{MaxInsts: id}, ctx: context.Background(), enqueued: now(), done: make(chan struct{})}); err != nil {
			t.Fatal(err)
		}
	}
	for want := uint64(1); want <= 4; want++ {
		j, ok := s.dequeue()
		if !ok {
			t.Fatal("dequeue stopped early")
		}
		if j.rq.MaxInsts != want {
			t.Fatalf("dequeued job %d, want %d", j.rq.MaxInsts, want)
		}
	}
}

// TestMetricsEndpointShape: /metrics is a decodable ebcp.servestats/v1
// document with the histograms present.
func TestMetricsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post(t, ts.URL, smallBody(""))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStatsV1(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("metrics body does not round-trip strictly: %v", err)
	}
	if _, err := DecodeStatsV1(bytes.NewReader(append(body, "x"...))); !errors.Is(err, ebcperr.ErrBadReport) {
		t.Errorf("stats followed by stray bytes: err = %v, want ErrBadReport", err)
	}
	if st.Completed != 1 || st.RequestUS.Count != 1 {
		t.Errorf("completed=%d request histogram count=%d, want 1/1", st.Completed, st.RequestUS.Count)
	}
	if st.QueueWaitUS.Count == 0 {
		t.Error("queue wait histogram empty after a served request")
	}
	if st.Cache.ComputeUS.Count != st.Cache.Misses {
		t.Errorf("compute histogram count %d != misses %d", st.Cache.ComputeUS.Count, st.Cache.Misses)
	}
}

// waitFor polls cond for up to 30s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
