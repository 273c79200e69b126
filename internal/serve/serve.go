package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ebcp/internal/ebcperr"
	"ebcp/internal/exp"
	"ebcp/internal/metrics"
)

// Config parameterizes a Server. The zero value of each field selects
// the documented default.
type Config struct {
	// Workers is how many requests execute concurrently (default:
	// runtime.NumCPU()). Each executing request runs one exp.Session.
	Workers int
	// SimWorkers is each request's internal simulation parallelism
	// (exp.Options.Workers; default 1, so request-level parallelism —
	// not per-request fan-out — fills the cores and one giant request
	// cannot starve the rest).
	SimWorkers int
	// QueueDepth bounds how many requests may wait *per priority class*
	// (default 64). A request arriving at a full queue is rejected with
	// 429 and a Retry-After header instead of queuing without bound.
	QueueDepth int
	// CacheBytes is the shared result cache's eviction budget (default
	// 256 MiB; < 0 disables the budget).
	CacheBytes int64
	// DefaultTimeout bounds requests that do not set timeout_ms
	// (default: no limit).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.SimWorkers == 0 {
		c.SimWorkers = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// job is one admitted request waiting for (or being executed by) a
// worker.
type job struct {
	rq       RunRequestV1
	res      resolved
	ctx      context.Context
	enqueued time.Time
	// done is closed by the worker after filling result/err.
	done   chan struct{}
	result *metrics.ReportV1
	err    error
}

// Server owns the shared cache, the two priority queues and the worker
// pool. Build one with New, mount Handler on an http.Server, and stop
// it with Drain.
type Server struct {
	cfg   Config
	cache *exp.Cache

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*job // priority class → FIFO
	draining bool

	wg sync.WaitGroup

	// Counters under mu (the histograms come from metrics and are plain
	// value types).
	received  uint64
	rejected  uint64
	completed uint64
	failed    uint64
	simRuns   uint64
	simShared uint64
	queueUS   metrics.Histogram // admission → dequeue, µs
	requestUS metrics.Histogram // admission → response ready, µs
	inflight  int
}

// New validates the configuration and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 0 || cfg.SimWorkers < 0 || cfg.QueueDepth < 0 || cfg.MaxBodyBytes < 0 {
		return nil, ebcperr.Invalidf("serve: workers/sim-workers/queue-depth/max-body must be non-negative")
	}
	s := &Server{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheBytes),
		queues: map[string][]*job{PriorityInteractive: nil, PriorityBatch: nil},
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// enqueue admits a job or rejects it with an ErrOverloaded- or
// drain-classified error.
func (s *Server) enqueue(j *job, priority string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ebcperr.Cancelledf("serve: server is draining")
	}
	q := s.queues[priority]
	if len(q) >= s.cfg.QueueDepth {
		return ebcperr.Wrap(ebcperr.ErrOverloaded, "serve: %s queue full (%d waiting)", priority, len(q))
	}
	s.queues[priority] = append(q, j)
	s.cond.Signal()
	return nil
}

// dequeue blocks until a job is available (interactive before batch) or
// the pool is draining with nothing left; ok is false to stop the
// worker.
func (s *Server) dequeue() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for _, pri := range []string{PriorityInteractive, PriorityBatch} {
			if q := s.queues[pri]; len(q) > 0 {
				j := q[0]
				s.queues[pri] = q[1:]
				s.queueUS.Observe(uint64(now().Sub(j.enqueued).Microseconds()))
				s.inflight++
				return j, true
			}
		}
		if s.draining {
			return nil, false
		}
		s.cond.Wait()
	}
}

// worker executes jobs until drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.dequeue()
		if !ok {
			return
		}
		s.execute(j)
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}
}

// execute runs one job's experiment session against the shared cache
// and fills its result.
func (s *Server) execute(j *job) {
	defer close(j.done)
	if err := j.ctx.Err(); err != nil {
		// The client went away (or its deadline expired) while the job
		// was queued: don't burn a worker on a response nobody reads.
		j.err = ebcperr.Cancelledf("serve: request abandoned in queue: %v", err)
		return
	}
	sp := j.res.sp
	opts, err := j.rq.options(s.cfg, sp.Benchmarks)
	if err != nil {
		j.err = err
		return
	}
	opts.Cache = s.cache
	opts.SpecJSON = j.res.canon
	// An inline spec's windows apply only when the request sets none of
	// its own — explicit warm_insts/measure_insts always win.
	if j.rq.WarmInsts == 0 && sp.WarmInsts > 0 {
		opts.Warm = sp.WarmInsts
	}
	if j.rq.MeasureInsts == 0 && sp.MeasureInsts > 0 {
		opts.Measure = sp.MeasureInsts
	}
	session := exp.NewSessionContext(j.ctx, opts)
	rep := j.res.e.Run(session)
	grid := rep.GridV1()

	s.mu.Lock()
	s.simRuns += uint64(session.Runs())
	s.simShared += uint64(session.SharedHits())
	s.mu.Unlock()

	// A report whose every cell is n/a carries no data: classify the
	// failure instead of returning an empty grid as success. Partial
	// reports (some cells failed) stay 200s — the grid itself marks the
	// n/a cells and the notes say why.
	if cells := gridCells(grid); cells > 0 && grid.NACells == cells {
		if err := session.FirstError(); err != nil {
			j.err = err
			return
		}
	}
	if err := session.Err(); err != nil && grid.NACells > 0 {
		j.err = ebcperr.Cancelledf("serve: request cancelled with %d cell(s) unsimulated: %v", grid.NACells, err)
		return
	}
	j.result = &metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpd", Grids: []metrics.GridV1{grid}}
}

// gridCells counts a grid's value cells.
func gridCells(g metrics.GridV1) int {
	n := 0
	for _, row := range g.Rows {
		n += len(row.Values)
	}
	return n
}

// Handler returns the daemon's endpoint mux: POST /v1/run, GET
// /healthz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// handleRun admits, executes and answers one experiment request.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.mu.Lock()
	s.received++
	s.mu.Unlock()

	var res resolved
	rq, err := DecodeRunRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		res, err = rq.validate()
	}
	if err != nil {
		s.noteFailed()
		writeError(w, StatusOf(err), err.Error())
		return
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if rq.TimeoutMS > 0 {
		timeout = time.Duration(rq.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	j := &job{rq: rq, res: res, ctx: ctx, enqueued: start, done: make(chan struct{})}
	if err := s.enqueue(j, rq.priority()); err != nil {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		code := StatusOf(err)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfter(s.cfg))
		}
		if s.isDraining() {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err.Error())
		return
	}

	select {
	case <-j.done:
	case <-ctx.Done():
		// The worker (if it ever picks the job up) sees the cancelled
		// context and abandons it; answer the client now.
		s.noteFailed()
		writeError(w, StatusClientClosedRequest, fmt.Sprintf("request cancelled: %v", ctx.Err()))
		return
	}
	if j.err != nil {
		s.noteFailed()
		writeError(w, StatusOf(j.err), j.err.Error())
		return
	}
	s.mu.Lock()
	s.completed++
	s.requestUS.Observe(uint64(now().Sub(start).Microseconds()))
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := metrics.WriteJSON(w, j.result); err != nil {
		// Headers are gone; nothing to do but note it.
		s.noteFailed()
	}
}

// retryAfter suggests how long a 429'd client should wait: one queue
// drain at a guessed pace. It is advisory; the contract is its
// presence.
func retryAfter(cfg Config) string {
	secs := cfg.QueueDepth / (cfg.Workers + 1)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

func (s *Server) noteFailed() {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// healthzV1 is the /healthz body.
type healthzV1 struct {
	Status   string `json:"status"`
	Queued   int    `json:"queued"`
	Inflight int    `json:"inflight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthzV1{Status: "ok", Inflight: s.inflight}
	for _, q := range s.queues {
		h.Queued += len(q)
	}
	code := http.StatusOK
	if s.draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSONBody(w, h)
}

// StatsSchemaV1 identifies the /metrics document.
const StatsSchemaV1 = "ebcp.servestats/v1"

// StatsV1 is the /metrics body: request counters, queue and request
// latency histograms (metrics.Histogram, the same log2-bucket shape the
// simulator reports), simulation totals and the shared cache counters.
type StatsV1 struct {
	Schema string `json:"schema"`
	// Requests.
	Received  uint64 `json:"requests_received"`
	Completed uint64 `json:"requests_completed"`
	Failed    uint64 `json:"requests_failed"`
	Rejected  uint64 `json:"requests_rejected"`
	Queued    int    `json:"queued"`
	Inflight  int    `json:"inflight"`
	// Simulation work across all sessions.
	SimRuns   uint64 `json:"sim_runs_total"`
	SimShared uint64 `json:"sim_shared_hits_total"`
	// Latency histograms in microseconds.
	QueueWaitUS metrics.Histogram `json:"queue_wait_us"`
	RequestUS   metrics.Histogram `json:"request_us"`
	// The shared result cache.
	Cache exp.CacheStats `json:"cache"`
}

// Stats snapshots the serving counters (the /metrics body).
func (s *Server) Stats() StatsV1 {
	s.mu.Lock()
	st := StatsV1{
		Schema:      StatsSchemaV1,
		Received:    s.received,
		Completed:   s.completed,
		Failed:      s.failed,
		Rejected:    s.rejected,
		Inflight:    s.inflight,
		SimRuns:     s.simRuns,
		SimShared:   s.simShared,
		QueueWaitUS: s.queueUS,
		RequestUS:   s.requestUS,
	}
	for _, q := range s.queues {
		st.Queued += len(q)
	}
	s.mu.Unlock()
	st.Cache = s.cache.Stats()
	return st
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, s.Stats())
}

// writeError answers with a small JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSONBody(w, map[string]any{"error": msg, "status": code})
}

// writeJSONBody encodes v onto w through the canonical encoder — the
// same two-space-indent, trailing-newline byte form every other emitted
// document uses (and the codecstrict analyzer demands). Encode errors
// at this point can only mean a dead connection, which the caller
// cannot act on.
func writeJSONBody(w http.ResponseWriter, v any) {
	_ = metrics.WriteJSON(w, v)
}

// DecodeStatsV1 strictly parses an ebcp.servestats/v1 document: unknown
// fields and any other schema string are rejected, so monitoring
// clients notice drift instead of reading half a document.
func DecodeStatsV1(r io.Reader) (StatsV1, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var st StatsV1
	if err := dec.Decode(&st); err != nil {
		return StatsV1{}, ebcperr.Wrap(ebcperr.ErrBadReport, "serve: decoding stats: %v", err)
	}
	if st.Schema != StatsSchemaV1 {
		return StatsV1{}, ebcperr.Wrap(ebcperr.ErrBadReport, "serve: unsupported stats schema %q (want %q)", st.Schema, StatsSchemaV1)
	}
	return st, nil
}

// Drain stops the pool gracefully: new requests are rejected with 503,
// queued and executing jobs finish, and Drain returns when every worker
// has exited — or with ctx's error if that takes longer than the
// caller's deadline. Call http.Server.Shutdown first so in-flight
// handlers get their responses.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ebcperr.Cancelledf("serve: drain incomplete: %v", ctx.Err())
	}
}
