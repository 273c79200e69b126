package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ebcp/internal/analysis"
	"ebcp/internal/core"
	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// nextOnly hides a source's ReadBatch so Run must take the per-record
// fallback path.
type nextOnly struct{ s trace.Source }

func (n nextOnly) Next() (trace.Record, bool) { return n.s.Next() }

// readerGone waits for the goroutine count to settle back to before: Run
// and RunCMP must not leave their trace reader running on any exit path.
func readerGone(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before the run, %d after", before, g)
	}
}

// TestBatchedRunMatchesPerRecord locks the batched-Source contract at the
// Runner level: a run fed through the bulk ReadBatch path returns exactly
// the same Result as one fed record-by-record, on one core and on a CMP.
func TestBatchedRunMatchesPerRecord(t *testing.T) {
	b, err := workload.ByName("Database")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = b.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 200_000, 500_000

	before := runtime.NumGoroutine()
	batched := must(Run(must(workload.New(b)), must(core.New(core.DefaultConfig())), cfg))
	perRecord := must(Run(nextOnly{must(workload.New(b))}, must(core.New(core.DefaultConfig())), cfg))
	if !reflect.DeepEqual(batched, perRecord) {
		t.Errorf("batched and per-record runs diverge:\n  batched    %+v\n  per-record %+v", batched, perRecord)
	}

	const lanes = 4
	ecfg := core.DefaultConfig()
	ecfg.Cores = lanes
	cmpBatched := must(RunCMP(cmpSources(b, lanes), must(core.New(ecfg)), cfg))
	srcs := cmpSources(b, lanes)
	for i := range srcs {
		srcs[i] = nextOnly{srcs[i]}
	}
	cmpPerRecord := must(RunCMP(srcs, must(core.New(ecfg)), cfg))
	if !reflect.DeepEqual(cmpBatched, cmpPerRecord) {
		t.Errorf("batched and per-record CMP runs diverge:\n  batched    %+v\n  per-record %+v", cmpBatched, cmpPerRecord)
	}
	readerGone(t, before)
}

// TestWarmupIncompleteFlag is the short-trace regression test: a source
// that exhausts before WarmInsts must fail with an ErrShortTrace-wrapped
// error, because the statistics were never reset and the "measured"
// numbers include warmup. The partial result still rides along on the
// typed error so callers can inspect the contaminated numbers.
func TestWarmupIncompleteFlag(t *testing.T) {
	b, err := workload.ByName("Database")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = b.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 1_000_000, 1_000_000

	before := runtime.NumGoroutine()
	short, err := Run(trace.NewLimit(must(workload.New(b)), 100_000), prefetch.None{}, cfg)
	if !errors.Is(err, ebcperr.ErrShortTrace) {
		t.Fatalf("short trace: err = %v, want ErrShortTrace", err)
	}
	var ste *ShortTraceError
	if !errors.As(err, &ste) {
		t.Fatalf("short trace error %T does not carry the partial result", err)
	}
	if !short.WarmupIncomplete || !ste.Partial.WarmupIncomplete {
		t.Error("source exhausted before WarmInsts: WarmupIncomplete must be set")
	}
	if short.Core.Instructions == 0 {
		t.Error("short run should still report the (warmup-polluted) statistics")
	}

	full := must(Run(trace.NewLimit(must(workload.New(b)), 3_000_000), prefetch.None{}, cfg))
	if full.WarmupIncomplete {
		t.Error("warmup completed: WarmupIncomplete must be clear")
	}

	// With no warmup window there is nothing to miss, even on a tiny trace.
	cfg.WarmInsts = 0
	none := must(Run(trace.NewLimit(must(workload.New(b)), 100_000), prefetch.None{}, cfg))
	if none.WarmupIncomplete {
		t.Error("WarmInsts=0: WarmupIncomplete must be clear")
	}
	readerGone(t, before)
}

// TestWarmupIncompleteCMP covers the multi-core variant: statistics reset
// only once every lane warms, so a single short trace pollutes all lanes
// and every per-core result must carry the flag. A lane that runs dry
// after it warmed (mid-measurement) is a valid, just truncated, run. The
// 64-lane inputs check that one exhausted lane among many neither wedges
// the loop nor escapes the flag.
func TestWarmupIncompleteCMP(t *testing.T) {
	b, err := workload.ByName("Database")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		lanes       int
		warm        uint64
		short       int    // lane whose source is truncated
		limit       uint64 // its instruction budget; 0 leaves it endless
		wantFlagged bool
		allShort    bool // truncate every lane's source, not just lane short
	}{
		{"2lanes/mid-warmup", 2, 1_000_000, 0, 100_000, true, false},
		{"2lanes/endless", 2, 1_000_000, 0, 0, false, false},
		{"64lanes/mid-warmup", 64, 20_000, 17, 1_000, true, false},
		{"64lanes/mid-measurement", 64, 20_000, 17, 60_000, false, false},
		{"1lane/all-short", 1, 1_000_000, 0, 100_000, true, true},
		{"2lanes/all-short", 2, 1_000_000, 0, 100_000, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Core.OnChipCPI = b.OnChipCPI
			cfg.WarmInsts, cfg.MeasureInsts = c.warm, c.warm
			sources := cmpSources(b, c.lanes)
			for i := range sources {
				if c.limit > 0 && (c.allShort || i == c.short) {
					sources[i] = trace.NewLimit(sources[i], c.limit)
				}
			}
			before := runtime.NumGoroutine()
			res, err := RunCMP(sources, prefetch.None{}, cfg)
			readerGone(t, before)
			if c.wantFlagged {
				if !errors.Is(err, ebcperr.ErrShortTrace) {
					t.Fatalf("short lane: err = %v, want ErrShortTrace", err)
				}
				var cste *CMPShortTraceError
				if !errors.As(err, &cste) {
					t.Fatalf("short lane error %T does not carry the partial result", err)
				}
			} else if err != nil {
				t.Fatalf("every lane warmed, yet the run failed: %v", err)
			}
			if len(res.PerCore) != c.lanes {
				t.Fatalf("got %d per-core results, want %d", len(res.PerCore), c.lanes)
			}
			for i, pc := range res.PerCore {
				if pc.WarmupIncomplete != c.wantFlagged {
					t.Errorf("lane %d: WarmupIncomplete = %v, want %v", i, pc.WarmupIncomplete, c.wantFlagged)
				}
				// With no lane left running, the partial result keeps every
				// instruction since the start rather than a reset to zero.
				if c.allShort && pc.Core.Instructions == 0 {
					t.Errorf("lane %d: partial result reports 0 instructions", i)
				}
			}
			if c.allShort && c.lanes == 1 {
				single, err := Run(trace.NewLimit(cmpSources(b, 1)[0], c.limit), prefetch.None{}, cfg)
				if !errors.Is(err, ebcperr.ErrShortTrace) {
					t.Fatalf("Run on the short source: err = %v, want ErrShortTrace", err)
				}
				if res.PerCore[0].Core != single.Core {
					t.Errorf("1-lane partial core stats %+v differ from Run's %+v", res.PerCore[0].Core, single.Core)
				}
			}
		})
	}
}

// TestSteadyStateAllocs asserts the tentpole's allocation contract: once
// the simulator reaches steady state, stepping trace records allocates
// (almost) nothing — the only sanctioned residue is the correlation
// table's one-page-per-512-entries arena growth and its rare index
// doublings as the table keeps learning new lines. Records arrive through
// a trace.Ahead, as in Run, so the reader's buffer recycling and the
// generator running on the reader goroutine are inside the measurement.
func TestSteadyStateAllocs(t *testing.T) {
	b, err := workload.ByName("Database")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = b.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 0, 1 // windows unused: we drive step directly

	r := must(NewRunner(cfg, must(core.New(core.DefaultConfig()))))
	ahead := trace.NewAhead([]trace.Source{must(workload.New(b))})
	defer ahead.Close()
	records := 0
	drive := func() {
		batch := ahead.Next(0)
		for _, rec := range batch {
			r.step(r.lane, rec)
		}
		records += len(batch)
	}
	// Warm the machine past its growth phase (~500k records): caches,
	// queues, the prefetcher's table and the generator's buffers reach
	// their working sizes.
	for records < 500_000 {
		drive()
	}
	const runs = 100
	records = 0
	avg := testing.AllocsPerRun(runs, drive)
	perBatch := float64(records) / (runs + 1) // AllocsPerRun adds one warm-up call
	if perRecord := avg / perBatch; perRecord > 0.01 {
		t.Errorf("steady state allocates %.4f allocs/record (%.1f per %.0f-record batch), want ~0",
			perRecord, avg, perBatch)
	}

	// The allocation contract covers the *instrumented* path: the metrics
	// registry must actually have been recording during the loop above,
	// not sitting disabled while the test vouches for a cold path.
	if r.lane.reg.EpochLen.Count == 0 {
		t.Error("metrics registry recorded no epochs: the alloc test exercised an uninstrumented path")
	}
	if got, want := r.lane.reg.PBUseDist.Count, r.pb.Stats().Hits+r.pb.Stats().PartialHits; got != want {
		t.Errorf("PB use-distance observations %d != PB hits %d", got, want)
	}

	// Snapshotting and deriving are read paths that reports may call in
	// loops; they must not allocate either.
	res := r.laneResult(r.lane)
	if avg := testing.AllocsPerRun(100, func() {
		snap := res.Snapshot()
		_ = snap.Derive()
	}); avg > 0 {
		t.Errorf("Snapshot+Derive allocates %.1f per call, want 0", avg)
	}

	// The //ebcp:hotpath annotations (enforced statically by the
	// hotpathalloc analyzer) and this runtime measurement must cover the
	// same code: step above exercises the simulator core, the caches and
	// prefetcher, the correlation table, the epoch core model, and the
	// generator/trace delivery path. If an annotation appears in a
	// package this loop does not drive — or a driven package loses its
	// annotations — one of the two checks has gone stale.
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	annotated, err := analysis.HotpathPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	covered := []string{
		"internal/cache",
		"internal/corrtab",
		"internal/cpu",
		"internal/prefetch",
		"internal/sim",
		"internal/trace",
		"internal/workload",
	}
	if !reflect.DeepEqual(annotated, covered) {
		t.Errorf("//ebcp:hotpath annotations span %v,\nbut this test drives %v;\nannotate (and exercise) or un-annotate to re-align", annotated, covered)
	}
}
