package prefetch

import (
	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// Filter is the adaptive prefetch-filter wrapper (the two-level idea of
// the neural filtering literature, realized with counters instead of a
// second network): it composes over any Prefetcher and vetoes the
// issues whose source page has not been earning its bandwidth. The
// wrapped prefetcher is driven unchanged — Filter forwards every access
// — but Context.Prefetch consults Filter.Admit (the IssueFilter hook)
// after the redundancy check, so a rejection costs neither memory
// bandwidth nor a prefetch-buffer slot, and the demand path is never
// touched: filtering can only drop prefetches, never demand misses.
//
// The usefulness signal is per page (64 lines), tracked in a hashed,
// tagless counter table: Admit counts issues, prefetch-buffer hits
// count uses, and a page keeps its issue rights while
// used*100 >= ThresholdPct*issued. Fresh (and aliased) pages get Probe
// free issues to prove themselves, and a rejected page is re-probed
// every Retry rejections, so a phase change can re-earn admission —
// nothing is blacklisted forever. ThresholdPct 0 admits everything:
// the wrapped contender's issue stream, and therefore the whole
// simulation, is identical to running it unwrapped.
type Filter struct {
	label string
	inner Prefetcher
	cfg   FilterConfig
	mask  uint64

	issued   []uint16
	used     []uint16
	rejected []uint16
}

// FilterConfig shapes the adaptive filter.
type FilterConfig struct {
	// TableEntries is the hashed per-page counter-table size (power of
	// two; tagless, so distinct pages may alias).
	TableEntries int
	// ThresholdPct is the minimum used/issued percentage a page must
	// sustain to keep issuing (0..100; 0 disables filtering entirely).
	ThresholdPct int
	// Probe is how many issues a fresh page gets before the threshold
	// applies (>= 1).
	Probe int
	// Retry re-probes a rejected page after this many rejections (>= 1).
	Retry int
}

// DefaultFilterConfig is the tuned shape: a 4K-entry counter table, a
// 20% usefulness threshold, eight probe issues and a re-probe every 64
// rejections.
func DefaultFilterConfig() FilterConfig {
	return FilterConfig{TableEntries: 4096, ThresholdPct: 20, Probe: 8, Retry: 64}
}

// NewFilter wraps inner in an adaptive filter. A nil inner or a bad
// shape returns an ErrInvalidConfig-classified error.
func NewFilter(inner Prefetcher, cfg FilterConfig) (*Filter, error) {
	if inner == nil {
		return nil, ebcperr.Invalidf("prefetch: filter needs a wrapped prefetcher")
	}
	if cfg.TableEntries <= 0 || cfg.TableEntries&(cfg.TableEntries-1) != 0 {
		return nil, ebcperr.Invalidf("prefetch: filter table entries %d must be a positive power of two", cfg.TableEntries)
	}
	if cfg.ThresholdPct < 0 || cfg.ThresholdPct > 100 {
		return nil, ebcperr.Invalidf("prefetch: filter threshold %d%% out of [0, 100]", cfg.ThresholdPct)
	}
	if cfg.Probe < 1 || cfg.Retry < 1 {
		return nil, ebcperr.Invalidf("prefetch: filter probe %d and retry %d must be at least 1", cfg.Probe, cfg.Retry)
	}
	return &Filter{
		label:    inner.Name() + "+filter",
		inner:    inner,
		cfg:      cfg,
		mask:     uint64(cfg.TableEntries - 1),
		issued:   make([]uint16, cfg.TableEntries),
		used:     make([]uint16, cfg.TableEntries),
		rejected: make([]uint16, cfg.TableEntries),
	}, nil
}

// Name implements Prefetcher.
func (f *Filter) Name() string { return f.label }

// pageSlot maps a line's page to its counter slot.
//
//ebcp:hotpath
func (f *Filter) pageSlot(line amo.Line) uint64 {
	return hermesHash(uint64(line)>>6) & f.mask
}

// filterCountCap bounds the per-page counters; at the cap both halve,
// so the usefulness ratio keeps tracking the recent past.
const filterCountCap = 1 << 14

// Admit implements IssueFilter.
//
//ebcp:hotpath
func (f *Filter) Admit(now uint64, line amo.Line) bool {
	s := f.pageSlot(line)
	if f.issued[s] >= filterCountCap {
		f.issued[s] >>= 1
		f.used[s] >>= 1
	}
	switch {
	case f.cfg.ThresholdPct == 0,
		int(f.issued[s]) < f.cfg.Probe,
		int(f.used[s])*100 >= f.cfg.ThresholdPct*int(f.issued[s]):
		f.issued[s]++
		return true
	}
	if f.rejected[s]++; int(f.rejected[s]) >= f.cfg.Retry {
		// Periodic re-probe: a phase change can re-earn admission.
		f.rejected[s] = 0
		f.issued[s]++
		return true
	}
	return false
}

// OnAccess implements Prefetcher: it books prefetch-buffer hits as uses
// of the hit line's page, then drives the wrapped prefetcher with the
// access unchanged.
//
//ebcp:hotpath
func (f *Filter) OnAccess(a Access, ctx *Context) {
	if a.PBHit {
		if s := f.pageSlot(a.Line); f.used[s] < filterCountCap {
			f.used[s]++
		}
	}
	f.inner.OnAccess(a, ctx)
}

// Cores forwards the wrapped prefetcher's tracked-thread count, so
// sim.RunCMP can check it through the wrapper; 0 means the wrapped
// prefetcher keeps no per-thread state.
func (f *Filter) Cores() int {
	if tc, ok := f.inner.(interface{ Cores() int }); ok {
		return tc.Cores()
	}
	return 0
}

// ResetStats forwards the warmup/measurement boundary to the wrapped
// prefetcher when it keeps window statistics; the filter's own counters
// are training state and persist, like every contender's tables.
func (f *Filter) ResetStats() {
	if rs, ok := f.inner.(interface{ ResetStats() }); ok {
		rs.ResetStats()
	}
}
