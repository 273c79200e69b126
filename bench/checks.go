package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"ebcp/internal/metrics"
	"ebcp/internal/sim"
)

// maxFailures bounds how many failure messages a result keeps.
const maxFailures = 10

// checks counts operations — a simulation rep, a grid, a request — and
// those whose output failed any check. It is safe for concurrent use.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// op collects the problems found in one operation's output.
type op []string

// expect records a problem unless ok.
func (o *op) expect(ok bool, format string, args ...any) {
	if !ok {
		*o = append(*o, fmt.Sprintf(format, args...))
	}
}

// noErr records err as a problem.
func (o *op) noErr(err error, what string) bool {
	if err != nil {
		*o = append(*o, fmt.Sprintf("%s: %v", what, err))
	}
	return err == nil
}

// check counts one operation, failed when it found any problem.
func (c *checks) check(o op) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if len(o) == 0 {
		return
	}
	c.failed++
	for _, p := range o {
		if len(c.failures) < maxFailures {
			c.failures = append(c.failures, p)
		}
	}
}

// fingerprint hashes the canonical JSON encoding of v.
func fingerprint(v any) (string, error) {
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, v); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// outcome is one simulation's result in the form the checks and the
// per-layer counts read: every lane's snapshot, one machine-wide
// snapshot, and the instructions simulated (warm-up included).
type outcome struct {
	lanes      []metrics.Snapshot
	agg        metrics.Snapshot
	insts      uint64
	incomplete bool
	// The raw result, which the grid and the daemon's table are compared
	// against: single is set by sim.Runner, cmp by the CMP engine.
	single sim.Result
	cmp    sim.CMPResult
}

func singleOutcome(res sim.Result, warm uint64) outcome {
	s := res.Snapshot()
	return outcome{
		lanes:      []metrics.Snapshot{s},
		agg:        s,
		insts:      warm + res.Core.Instructions,
		incomplete: res.WarmupIncomplete,
		single:     res,
	}
}

func cmpOutcome(res sim.CMPResult, warm uint64) (outcome, error) {
	out := outcome{cmp: res}
	for _, r := range res.PerCore {
		out.lanes = append(out.lanes, r.Snapshot())
		out.insts += warm + r.Core.Instructions
		out.incomplete = out.incomplete || r.WarmupIncomplete
	}
	agg, err := aggregate(out.lanes)
	out.agg = agg
	return out, err
}

// check records the problems of one simulation: a failed run (a short
// trace included), a warm-up that never completed, counters that do not
// reconcile, and a snapshot that differs from the reference run's.
func (out outcome) check(o *op, err error, want string) {
	if !o.noErr(err, "simulation") {
		return
	}
	o.expect(!out.incomplete, "warm-up incomplete")
	o.noErr(out.agg.CheckInvariants(), "invariants")
	if want != "" {
		fp, err := fingerprint(out.lanes)
		if o.noErr(err, "fingerprint") {
			o.expect(fp == want, "snapshot %s differs from the first run's %s", fp[:12], want[:12])
		}
	}
}

func addCache(d *metrics.CacheCounters, s metrics.CacheCounters) {
	d.Accesses += s.Accesses
	d.Hits += s.Hits
	d.Misses += s.Misses
	d.Fills += s.Fills
	d.Evictions += s.Evictions
	d.DirtyEvictions += s.DirtyEvictions
}

func addHist(d *metrics.Histogram, s metrics.Histogram) {
	d.Count += s.Count
	d.Sum += s.Sum
	for i, b := range s.Buckets {
		d.Buckets[i] += b
	}
}

// aggregate folds the lanes of a CMP run into one machine-wide snapshot
// that metrics.Snapshot.CheckInvariants accepts: lane-private counters
// (core, L1s, kind-split misses and buffer hits, histograms) are summed,
// while the shared L2, prefetch buffer, prefetch and memory counters —
// copied into every lane — are taken once. Each lane may close one epoch
// that straddles the warm-up reset, one more than the machine-wide
// identity allows; that excess is checked per lane and then removed.
func aggregate(lanes []metrics.Snapshot) (metrics.Snapshot, error) {
	agg := lanes[0]
	for i, s := range lanes {
		closes := uint64(0)
		for _, c := range s.Core.ClosesByReason {
			closes += c
		}
		if closes < s.Core.Epochs || closes > s.Core.Epochs+1 {
			return agg, fmt.Errorf("lane %d closes %d epochs of %d", i, closes, s.Core.Epochs)
		}
		if i == 0 {
			agg.Core.ClosesByReason[largest(agg.Core.ClosesByReason[:])] -= closes - s.Core.Epochs
			continue
		}
		c, a := s.Core, &agg.Core
		a.Instructions += c.Instructions
		a.Cycles += c.Cycles
		a.OnChipCycles += c.OnChipCycles
		a.OverlappedCycles += c.OverlappedCycles
		a.StallCycles += c.StallCycles
		a.Epochs += c.Epochs
		a.MissesOverlapped += c.MissesOverlapped
		for r := range c.ClosesByReason {
			a.ClosesByReason[r] += c.ClosesByReason[r]
			a.StallByReason[r] += c.StallByReason[r]
		}
		a.ClosesByReason[largest(a.ClosesByReason[:])] -= closes - c.Epochs
		addCache(&agg.L1I, s.L1I)
		addCache(&agg.L1D, s.L1D)
		agg.L2MissIFetch += s.L2MissIFetch
		agg.L2MissLoad += s.L2MissLoad
		agg.L2MissStore += s.L2MissStore
		agg.PBHitIFetch += s.PBHitIFetch
		agg.PBHitLoad += s.PBHitLoad
		addHist(&agg.Hist.EpochLen, s.Hist.EpochLen)
		addHist(&agg.Hist.EpochMisses, s.Hist.EpochMisses)
		addHist(&agg.Hist.PBUseDist, s.Hist.PBUseDist)
	}
	return agg, nil
}

// largest returns the index of the largest count.
func largest(xs []uint64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
