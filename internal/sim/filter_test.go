package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/registry"
	"ebcp/internal/workload"
)

// scaledCfg builds the short deterministic window the golden tests use.
func scaledCfg(b workload.Params) Config {
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = b.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 300_000, 200_000
	return cfg
}

// contenderParams overrides the parameter block of a registered
// contender; every other contender is built from an empty block (its
// Figure 9 defaults). Solihin's default table has 1,048,576 entries; a
// 65,536-entry one keeps its twelve runs fast.
var contenderParams = map[string]string{
	"solihin": `{"depth": 3, "width": 2, "table_entries": 65536}`,
}

// passThrough forwards Name and OnAccess and nothing else: the least a
// wrapper can forward, and under the contender contract all it must.
type passThrough struct{ inner prefetch.Prefetcher }

func (p passThrough) Name() string                                    { return p.inner.Name() }
func (p passThrough) OnAccess(a prefetch.Access, c *prefetch.Context) { p.inner.OnAccess(a, c) }

// TestFilterThresholdZeroByteIdentity: wrapping a contender changes no
// simulated machine. For every registered contender on all four Table 1
// workloads, a threshold-0 filter (which admits everything) and a
// pass-through wrapper must each produce a snapshot byte-identical to
// the bare run; only the filter's "+filter" label may differ. A hook
// the simulator discovered on the outermost prefetcher (Hermes's early
// dispatch, say) would be lost behind either wrapper.
func TestFilterThresholdZeroByteIdentity(t *testing.T) {
	zero := prefetch.DefaultFilterConfig()
	zero.ThresholdPct = 0
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, name := range registry.PrefetcherNames() {
				name := name
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					build := func() prefetch.Prefetcher {
						var params json.RawMessage
						if p, ok := contenderParams[name]; ok {
							params = json.RawMessage(p)
						}
						return must(must(registry.Prefetcher(name)).New(params, 0))
					}
					snapshot := func(pf prefetch.Prefetcher) []byte {
						s := must(Run(must(workload.New(b)), pf, scaledCfg(b)))
						s.Prefetcher = strings.TrimSuffix(s.Prefetcher, "+filter")
						var buf bytes.Buffer
						if err := metrics.WriteJSON(&buf, s); err != nil {
							t.Fatal(err)
						}
						return buf.Bytes()
					}
					bare := snapshot(build())
					if got := snapshot(must(prefetch.NewFilter(build(), zero))); !bytes.Equal(got, bare) {
						t.Errorf("threshold-0 filter perturbed the simulation:\n%s\nvs bare\n%s", got, bare)
					}
					if got := snapshot(passThrough{build()}); !bytes.Equal(got, bare) {
						t.Errorf("pass-through wrapper perturbed the simulation:\n%s\nvs bare\n%s", got, bare)
					}
				})
			}
		})
	}
}

// denyAll wraps a prefetcher and vetoes every one of its prefetches via
// the IssueFilter hook it installs around the wrapped OnAccess — the
// adversarial extreme of the adaptive filter.
type denyAll struct{ inner prefetch.Prefetcher }

func (d denyAll) Name() string                                    { return d.inner.Name() + "+deny" }
func (d denyAll) OnAccess(a prefetch.Access, c *prefetch.Context) { c.Filtered(d, d.inner, a) }
func (denyAll) Admit(uint64, amo.Line) bool                       { return false }

// TestFilterNeverDropsDemand: a filter that rejects every prefetch
// leaves the demand stream untouched — the run is cycle-identical to
// the no-prefetching baseline (the wrapped GHB is core-side, so its
// only externally visible activity is the vetoed prefetches), and the
// rejections are fully accounted in PF.Filtered.
func TestFilterNeverDropsDemand(t *testing.T) {
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg := scaledCfg(b)
			base := must(Run(must(workload.New(b)), prefetch.None{}, cfg))
			denied := must(Run(must(workload.New(b)), denyAll{inner: must(prefetch.GHBSmall(6))}, cfg))

			if denied.PF.Filtered == 0 {
				t.Fatal("deny-all filter never fired — the wrapped GHB issued nothing")
			}
			if denied.PF.Issued != 0 || denied.PB.Inserts != 0 {
				t.Fatalf("deny-all filter leaked prefetches: issued %d, inserts %d", denied.PF.Issued, denied.PB.Inserts)
			}
			if denied.Core.Cycles != base.Core.Cycles ||
				denied.L2MissLoad != base.L2MissLoad ||
				denied.L2MissIFetch != base.L2MissIFetch ||
				denied.Mem.Demand.Reads != base.Mem.Demand.Reads {
				t.Errorf("deny-all run diverged from the baseline: cycles %d vs %d, load misses %d vs %d",
					denied.Core.Cycles, base.Core.Cycles, denied.L2MissLoad, base.L2MissLoad)
			}
		})
	}
}
