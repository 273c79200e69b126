package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// referenceOrder is the plain scheduler the run loop must reproduce.
// Before every record it scans for the running lane with the lowest
// (clock, index), reads one record from that lane's source, and tracks
// the windows with flags: a lane warms at WarmInsts, the statistics of
// every lane and of the shared half reset together once the last lane
// warms, and each lane then retires after MeasureInsts more
// instructions. A source that ends inside warmup flags the run and
// counts its lane as warmed, unless no lane is left running.
func referenceOrder(sources []trace.Source, pf prefetch.Prefetcher, cfg Config) ([]metrics.Snapshot, bool) {
	r := must(newRunner(cfg, pf, len(sources)))
	n := len(sources)
	running := make([]bool, n)
	warmed := make([]bool, n)
	measureEnd := make([]uint64, n)
	for i := range running {
		running[i] = true
	}
	active, unwarmed := n, n
	measuring, short := false, false
	startMeasuring := func() {
		r.resetStats()
		for i, l := range r.lanes {
			measureEnd[i] = l.core.Insts() + cfg.MeasureInsts
		}
		measuring = true
	}
	markWarm := func(i int) {
		warmed[i] = true
		if unwarmed--; unwarmed == 0 {
			startMeasuring()
		}
	}
	if cfg.WarmInsts == 0 {
		startMeasuring()
	}
	for active > 0 {
		li := -1
		for i, l := range r.lanes {
			if running[i] && (li < 0 || l.core.Now() < r.lanes[li].core.Now()) {
				li = i
			}
		}
		l := r.lanes[li]
		rec, ok := sources[li].Next()
		if !ok {
			running[li] = false
			active--
			if !measuring && !warmed[li] {
				short = true
				if active > 0 {
					markWarm(li)
				}
			}
			continue
		}
		r.step(l, rec)
		switch {
		case measuring:
			if l.core.Insts() >= measureEnd[li] {
				running[li] = false
				active--
			}
		case !warmed[li] && l.core.Insts() >= cfg.WarmInsts:
			markWarm(li)
		}
	}
	snaps := make([]metrics.Snapshot, n)
	for i, l := range r.lanes {
		l.core.CloseEpoch()
		snaps[i] = r.laneResult(l)
		snaps[i].WarmupIncomplete = short
	}
	return snaps, short
}

// TestCMPLaneOrderMatchesReference checks the turn-based run loop against
// referenceOrder: every lane's snapshot must be identical, so the lanes
// executed their records in the same global order and crossed their
// windows at the same points. A shared EBCP makes any reordering of the
// lanes' misses show in the prefetcher's counters.
func TestCMPLaneOrderMatchesReference(t *testing.T) {
	b := workload.Database()
	cases := []struct {
		name      string
		lanes     int
		warm      uint64
		sameSeed  bool   // every lane runs the same trace, so clocks tie
		short     int    // lane whose source is truncated (when limit > 0)
		limit     uint64 // that source's instruction budget
		wantShort bool
	}{
		{name: "1lane", lanes: 1, warm: 200_000},
		{name: "2lanes", lanes: 2, warm: 100_000},
		{name: "3lanes", lanes: 3, warm: 60_000},
		{name: "16lanes", lanes: 16, warm: 12_000},
		{name: "4lanes/identical-sources", lanes: 4, warm: 50_000, sameSeed: true},
		{name: "1lane/no-warmup", lanes: 1},
		{name: "3lanes/no-warmup", lanes: 3},
		{name: "3lanes/short-warmup", lanes: 3, warm: 60_000, short: 1, limit: 20_000, wantShort: true},
		{name: "1lane/short-warmup", lanes: 1, warm: 60_000, short: 0, limit: 20_000, wantShort: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Core.OnChipCPI = b.OnChipCPI
			cfg.WarmInsts, cfg.MeasureInsts = c.warm, 150_000
			sources := func() []trace.Source {
				srcs := cmpSources(b, c.lanes)
				for i := range srcs {
					if c.sameSeed {
						srcs[i] = must(workload.New(b))
					}
					if c.limit > 0 && i == c.short {
						srcs[i] = trace.NewLimit(srcs[i], c.limit)
					}
				}
				return srcs
			}
			want, short := referenceOrder(sources(), ebcpCMP(c.lanes), cfg)
			if short != c.wantShort {
				t.Fatalf("reference short = %v, want %v", short, c.wantShort)
			}
			res, err := RunCMP(sources(), ebcpCMP(c.lanes), cfg)
			if c.wantShort != errors.Is(err, ebcperr.ErrShortTrace) {
				t.Fatalf("RunCMP err = %v, want short trace %v", err, c.wantShort)
			} else if !c.wantShort && err != nil {
				t.Fatal(err)
			}
			for i, pc := range res.PerCore {
				if !reflect.DeepEqual(pc, want[i]) {
					t.Errorf("lane %d diverges from the reference order:\n%s", i, snapshotDiff(pc, want[i]))
				}
			}
		})
	}
}

// snapshotDiff lists the top-level fields in which two snapshots differ.
func snapshotDiff(got, want metrics.Snapshot) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var out string
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			out += fmt.Sprintf("  %s: got %+v, want %+v\n", g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return out
}
