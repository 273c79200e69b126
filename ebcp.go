// Package ebcp is a trace-driven microarchitecture simulation library
// reproducing "Low-Cost Epoch-Based Correlation Prefetching for Commercial
// Applications" (Yuan Chou, MICRO 2007).
//
// It provides:
//
//   - the epoch-based correlation prefetcher (EBCP) — a correlation
//     prefetcher whose multi-megabyte table lives in main memory, accessed
//     timely by hiding the table read under a prior epoch, and which
//     targets the removal of entire epochs rather than individual misses;
//   - a cycle-approximate simulator of the paper's default processor
//     (epoch-MLP core model, L1/L2 caches, prefetch buffer,
//     bandwidth-constrained memory interconnect with strict priorities);
//   - synthetic generators for the paper's four commercial workloads
//     (database OLTP, TPC-W, SPECjbb2005, SPECjAppServer2004), calibrated
//     against the paper's baseline statistics;
//   - every comparison prefetcher of the paper's evaluation (GHB PC/DC,
//     the Tag Correlating Prefetcher, a stream prefetcher, Spatial Memory
//     Streaming, Solihin's memory-side prefetcher and the EBCP-minus
//     ablation) and the post-paper contenders, each built by name with
//     NewPrefetcher exactly as an experiment spec's cell builds it;
//   - experiment runners regenerating Table 1 and Figures 4-9.
//
// Quick start:
//
//	bench := ebcp.SPECjbb2005()
//	cfg := ebcp.DefaultSystem(bench)
//	cfg.WarmInsts, cfg.MeasureInsts = 20e6, 20e6
//	src, err := ebcp.NewTrace(bench)
//	if err != nil { ... }
//	base, err := ebcp.Run(src, ebcp.Baseline(), cfg)
//	if err != nil { ... }
//	pf, err := ebcp.NewEBCP(ebcp.TunedEBCP())
//	if err != nil { ... }
//	src, _ = ebcp.NewTrace(bench)
//	res, err := ebcp.Run(src, pf, cfg)
//	if err != nil { ... }
//	fmt.Printf("speedup: %+.1f%%\n", 100*res.Improvement(base))
//
// Constructors and Run report failures as errors classified by the
// sentinels in internal/ebcperr: invalid configurations wrap
// ErrInvalidConfig, and a trace that ends before the warmup window
// completes yields a *ShortTraceError (wrapping ErrShortTrace) that
// still carries the partial Result.
package ebcp

import (
	"context"
	"encoding/json"

	"ebcp/internal/cache"
	"ebcp/internal/core"
	"ebcp/internal/corrtab"
	"ebcp/internal/cpu"
	"ebcp/internal/ebcperr"
	"ebcp/internal/exp"
	"ebcp/internal/mem"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/registry"
	"ebcp/internal/sim"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// Re-exported core types. The library's full surface lives in the
// internal packages; these aliases are the supported public API.
type (
	// Benchmark parameterizes a synthetic workload.
	Benchmark = workload.Params
	// SystemConfig describes the simulated machine.
	SystemConfig = sim.Config
	// Result carries the measured statistics of one run (it is a
	// MetricsSnapshot).
	Result = sim.Result
	// CMPResult carries the per-thread and aggregate statistics of a
	// multi-core run.
	CMPResult = sim.CMPResult
	// ShortTraceError reports a run whose trace ended before warmup
	// completed; it wraps ErrShortTrace and carries the partial Result.
	ShortTraceError = sim.ShortTraceError
	// CMPShortTraceError is the multi-core analogue of ShortTraceError.
	CMPShortTraceError = sim.CMPShortTraceError
	// Prefetcher is the interface all prefetchers implement: Name and
	// OnAccess are the whole contract. A custom contender reaches the
	// machine only through the PrefetchContext OnAccess hands it, so a
	// wrapper that forwards OnAccess forwards everything it does.
	Prefetcher = prefetch.Prefetcher
	// EBCPConfig parameterizes the epoch-based correlation prefetcher.
	EBCPConfig = core.Config
	// EBCP is the epoch-based correlation prefetcher.
	EBCP = core.EBCP
	// TraceSource is a stream of condensed trace records.
	TraceSource = trace.Source
	// Access is one L2-level access presented to a prefetcher (implement
	// Prefetcher against it to plug a custom scheme into Run).
	Access = prefetch.Access
	// PrefetchContext is a custom prefetcher's only way to the machine:
	// it issues prefetches and correlation-table traffic under the
	// memory system's bandwidth and priority rules, and carries the
	// demand-side hooks (Filtered for an issue filter, RejectThread for
	// an access from a thread the prefetcher does not track).
	PrefetchContext = prefetch.Context
	// CacheConfig describes one cache.
	CacheConfig = cache.Config
	// MemConfig describes the memory system.
	MemConfig = mem.Config
	// CoreConfig describes the core model.
	CoreConfig = cpu.Config
)

// Error sentinels: every failure returned by this package matches
// exactly one of these under errors.Is.
var (
	// ErrInvalidConfig classifies rejected configurations and flag
	// values.
	ErrInvalidConfig = ebcperr.ErrInvalidConfig
	// ErrShortTrace classifies runs whose trace ended before the warmup
	// window completed, so the returned statistics include warmup.
	ErrShortTrace = ebcperr.ErrShortTrace
	// ErrCancelled classifies experiment cells skipped because the
	// session's context was cancelled before they could run.
	ErrCancelled = ebcperr.ErrCancelled
)

// The four commercial benchmarks of the paper's evaluation.
var (
	Database           = workload.Database
	TPCW               = workload.TPCW
	SPECjbb2005        = workload.SPECjbb2005
	SPECjAppServer2004 = workload.SPECjAppServer2004
	// Benchmarks returns all four in the paper's order.
	Benchmarks = workload.All
	// BenchmarkByName resolves a benchmark by its display name.
	BenchmarkByName = workload.ByName
)

// NewTrace builds the deterministic condensed-trace source for a
// benchmark. Invalid benchmark parameters return an error wrapping
// ErrInvalidConfig.
func NewTrace(b Benchmark) (TraceSource, error) { return workload.New(b) }

// LimitTrace truncates a trace source after n instructions. A limit
// below a run's warmup window makes Run return an ErrShortTrace-wrapped
// error instead of clean-looking statistics.
func LimitTrace(src TraceSource, n uint64) TraceSource { return trace.NewLimit(src, n) }

// DefaultSystem returns the paper's default processor configuration
// (Section 4.4), with the core's on-chip CPI calibrated for the given
// benchmark.
func DefaultSystem(b Benchmark) SystemConfig {
	cfg := sim.DefaultConfig()
	cfg.Core.OnChipCPI = b.OnChipCPI
	return cfg
}

// Run simulates the trace on the system with the given prefetcher and
// returns the measured statistics. An invalid configuration returns an
// error wrapping ErrInvalidConfig; a trace that ends before the warmup
// window completes returns a *ShortTraceError (wrapping ErrShortTrace)
// alongside the warmup-contaminated partial Result. The trace is read
// ahead on a goroutine of Run's own, so src must not be used elsewhere
// until Run returns, and how far it was read is unspecified.
func Run(src TraceSource, pf Prefetcher, cfg SystemConfig) (Result, error) {
	return sim.Run(src, pf, cfg)
}

// RunCMP simulates a chip multiprocessor: one trace per hardware thread,
// private cores and L1 caches, shared L2/interconnect/prefetcher. Set
// EBCPConfig.Cores to the thread count so the prefetcher control tracks
// each thread's epochs separately (the paper's Section 6 direction).
// RunCMP's error contract matches Run: ErrInvalidConfig for bad
// configurations (including a prefetcher that got an access from a
// thread it does not track, PrefetchContext.RejectThread), and a
// *CMPShortTraceError (wrapping ErrShortTrace, carrying the partial
// CMPResult) when any thread's trace ends before its warmup window
// completes. The traces are read ahead on one
// goroutine of RunCMP's own, so the sources must not be used elsewhere
// until RunCMP returns, and how far each was read is unspecified.
func RunCMP(sources []TraceSource, pf Prefetcher, cfg SystemConfig) (CMPResult, error) {
	return sim.RunCMP(sources, pf, cfg)
}

// The correlation table an EBCP trains on-line (EBCP.Table), for
// reading its occupancy and statistics.
type (
	// CorrelationTable is the EBCP main-memory correlation table.
	CorrelationTable = corrtab.Table
	// CorrelationTableConfig describes a correlation table's geometry.
	CorrelationTableConfig = corrtab.Config
)

// Baseline returns the no-prefetching prefetcher.
func Baseline() Prefetcher { return prefetch.None{} }

// TunedEBCP is the tuned configuration of Section 5.2: 1M-entry
// main-memory table, prefetch degree 8, 64-entry prefetch buffer (set the
// buffer in the SystemConfig).
func TunedEBCP() EBCPConfig { return core.DefaultConfig() }

// IdealizedEBCP is the design-space starting point of Section 5.2: an
// 8M-entry table holding 32 prefetch addresses per entry and issuing up
// to 32 prefetches per match (pair with a 1024-entry prefetch buffer).
func IdealizedEBCP() EBCPConfig {
	cfg := core.DefaultConfig()
	cfg.TableEntries = 8 << 20
	cfg.TableMaxAddrs = 32
	cfg.Degree = 32
	return cfg
}

// NewEBCP builds an epoch-based correlation prefetcher. An invalid
// configuration returns an error wrapping ErrInvalidConfig.
func NewEBCP(cfg EBCPConfig) (*EBCP, error) { return core.New(cfg) }

// NewPrefetcher builds a named contender the way an experiment spec's
// cell does (ebcp.spec/v1; the committed specs under internal/exp/specs
// hold every contender's paper parameters): name is the cell's
// prefetcher.name, params its prefetcher.params JSON block, strictly
// decoded (nil or empty keeps every default), and cores the CMP lane
// count (0 for a single core). An unknown name, whose error lists every
// registered one, and a bad parameter block return errors wrapping
// ErrInvalidConfig. For example, Figure 9's large GHB:
//
//	pf, err := ebcp.NewPrefetcher("ghb-large", []byte(`{"degree": 6}`), 0)
func NewPrefetcher(name string, params json.RawMessage, cores int) (Prefetcher, error) {
	e, err := registry.Prefetcher(name)
	if err != nil {
		return nil, err
	}
	return e.New(params, cores)
}

// NoTableIndex marks prefetches with no associated correlation-table
// entry (custom prefetchers pass it to PrefetchContext.Prefetch).
const NoTableIndex = cache.NoTableIndex

// Experiment machinery: the paper's tables and figures (plus the CMP and
// ablation extensions) as runnable definitions.
type (
	// Experiment is one regenerable artifact of the paper.
	Experiment = exp.Experiment
	// ExperimentOptions control windows, progress output and workload
	// overrides.
	ExperimentOptions = exp.Options
	// ExperimentSession memoizes simulations across experiments.
	ExperimentSession = exp.Session
	// ExperimentReport is a rendered experiment result with the paper's
	// reference values inline.
	ExperimentReport = exp.Report
	// ExperimentRunUpdate is the progress event delivered once per
	// completed simulation.
	ExperimentRunUpdate = exp.RunUpdate
)

// ExperimentProgressWriter adapts an io.Writer into an Options.Progress
// callback printing one line per completed simulation.
var ExperimentProgressWriter = exp.ProgressWriter

// Metrics and machine-readable reports. A Result is a MetricsSnapshot:
// its methods are the paper's evaluation metrics (CPI, LoadMPKI,
// Coverage, Improvement, ...), Derive collects them, and
// CheckInvariants self-checks its counter identities; reports bundle
// snapshots and experiment grids into the schema-versioned document
// both commands emit under -json.
type (
	// MetricsSnapshot is the flat raw-counter view of one run.
	MetricsSnapshot = metrics.Snapshot
	// DerivedMetrics are the paper's evaluation metrics computed from a
	// snapshot.
	DerivedMetrics = metrics.Derived
	// MetricsHistogram is a fixed-bucket power-of-two histogram.
	MetricsHistogram = metrics.Histogram
	// MetricsRegistry bundles the histograms one run collects.
	MetricsRegistry = metrics.Registry
	// ReportV1 is the schema-versioned machine-readable report.
	ReportV1 = metrics.ReportV1
	// RunV1 is one simulation inside a ReportV1.
	RunV1 = metrics.RunV1
	// ComparisonV1 relates a measured RunV1 to its baseline.
	ComparisonV1 = metrics.ComparisonV1
	// GridV1 is one experiment table inside a ReportV1.
	GridV1 = metrics.GridV1
	// ConfigV1 records the simulation parameters of a RunV1.
	ConfigV1 = metrics.ConfigV1
)

// ReportSchemaV1 identifies version 1 of the report schema.
const ReportSchemaV1 = metrics.SchemaV1

var (
	// WriteJSON is the one JSON encoder all commands share (two-space
	// indent, trailing newline); emitted documents round-trip through
	// DecodeReportV1 byte-for-byte.
	WriteJSON = metrics.WriteJSON
	// DecodeReportV1 parses a ReportV1, rejecting unknown fields and
	// unsupported schema versions.
	DecodeReportV1 = metrics.DecodeReportV1
)

// Experiments returns every experiment in paper order (table1, fig4..fig9,
// cmp, ablations).
func Experiments() []Experiment { return exp.All() }

// ExperimentByID resolves an experiment by its short id.
func ExperimentByID(id string) (Experiment, error) { return exp.ByID(id) }

// NewExperimentSession creates a memoizing session for experiment runs.
// Simulations shard across Options.Workers goroutines; reports are
// bit-identical for any worker count.
func NewExperimentSession(opts ExperimentOptions) *ExperimentSession {
	return exp.NewSession(opts)
}

// NewExperimentSessionContext creates a session whose simulations stop
// when ctx is cancelled: pending cells are skipped and reports render
// "n/a" for cells that never ran (Session.Err reports why and
// Session.Failures counts them).
func NewExperimentSessionContext(ctx context.Context, opts ExperimentOptions) *ExperimentSession {
	return exp.NewSessionContext(ctx, opts)
}
