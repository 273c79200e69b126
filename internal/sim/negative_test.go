package sim

import (
	"errors"
	"testing"

	"ebcp/internal/core"
	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

func checkInvalid(t *testing.T, name string, f func() error) {
	t.Helper()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panicked (%v), want typed error", name, r)
			}
		}()
		return f()
	}()
	switch {
	case err == nil:
		t.Errorf("%s: accepted, want error", name)
	case !errors.Is(err, ebcperr.ErrInvalidConfig):
		t.Errorf("%s: error %q not classified ErrInvalidConfig", name, err)
	case len(err.Error()) < 10:
		t.Errorf("%s: message %q not descriptive", name, err)
	}
}

// cmpLanes runs a two-lane CMP with the prefetcher pf builds.
func cmpLanes(pf func() prefetch.Prefetcher) func() error {
	return func() error {
		cfg := DefaultConfig()
		cfg.WarmInsts, cfg.MeasureInsts = 1_000, 1_000
		_, err := RunCMP(cmpSources(workload.Database(), 2), pf(), cfg)
		return err
	}
}

func TestNegativeConfigs(t *testing.T) {
	run := func(f func(*Config)) func() error {
		return func() error {
			cfg := DefaultConfig()
			f(&cfg)
			_, err := Run(trace.NewSlice(nil), prefetch.None{}, cfg)
			return err
		}
	}
	cases := []struct {
		name string
		f    func() error
	}{
		{"zero PB entries", run(func(c *Config) { c.PBEntries = 0 })},
		{"negative PB entries", run(func(c *Config) { c.PBEntries = -1 })},
		{"zero PB ways", run(func(c *Config) { c.PBWays = 0 })},
		{"zero measure window", run(func(c *Config) { c.MeasureInsts = 0 })},
		{"bad core config", run(func(c *Config) { c.Core.OnChipCPI = 0 })},
		{"bad L2 config", run(func(c *Config) { c.L2.SizeBytes = 3000 })},
		{"bad mem config", run(func(c *Config) { c.Mem.ReadGBps = 0 })},
		{"CMP no sources", func() error {
			_, err := RunCMP(nil, prefetch.None{}, DefaultConfig())
			return err
		}},
		{"CMP more lanes than EBCP tracks", cmpLanes(func() prefetch.Prefetcher {
			return must(core.New(core.DefaultConfig())) // Cores 0: one thread
		})},
		{"CMP more lanes than Hermes tracks", cmpLanes(func() prefetch.Prefetcher {
			return must(prefetch.NewHermes(prefetch.DefaultHermesConfig(), 1))
		})},
		{"CMP more lanes than a filtered Hermes tracks", cmpLanes(func() prefetch.Prefetcher {
			h := must(prefetch.NewHermes(prefetch.DefaultHermesConfig(), 1))
			return must(prefetch.NewFilter(h, prefetch.DefaultFilterConfig()))
		})},
		{"CMP bad config", func() error {
			cfg := DefaultConfig()
			cfg.PBWays = 0
			_, err := RunCMP([]trace.Source{trace.NewSlice(nil)}, prefetch.None{}, cfg)
			return err
		}},
	}
	for _, c := range cases {
		checkInvalid(t, c.name, c.f)
	}
}
