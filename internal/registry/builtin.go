// The built-in registry entries: every contender the paper's Figure 9
// comparison, the CMP extension and the frontier experiment use. The
// map literal makes duplicate names a compile error;
// TestCanonicalSpecsMatchRegistry in internal/exp checks these names
// against the committed spec files under internal/exp/specs.
package registry

import (
	"encoding/json"

	"ebcp/internal/core"
	"ebcp/internal/prefetch"
)

// newEBCP decodes the parameter block straight over the tuned EBCP
// configuration, so every tagged core.Config field is settable, an
// explicit zero or false included (lru_writeback defaults to true). The
// core count comes from the cell, never from the block.
func newEBCP(params json.RawMessage, cores int) (prefetch.Prefetcher, error) {
	cfg := core.DefaultConfig()
	if err := decodeParams("ebcp", params, &cfg); err != nil {
		return nil, err
	}
	cfg.Cores = cores
	return core.New(cfg)
}

// degreeParams parameterize the fixed-geometry comparison prefetchers.
// The default degree is Figure 9's 6.
type degreeParams struct {
	Degree int `json:"degree"`
}

// newChain decodes the parameter block over the tuned chain shape; an
// explicit zero replaces the default and meets NewChain's checks.
func newChain(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
	cfg := prefetch.DefaultChainConfig()
	if err := decodeParams("chain", params, &cfg); err != nil {
		return nil, err
	}
	return prefetch.NewChain(cfg)
}

// newHermes decodes the parameter block over the tuned Hermes shape; an
// explicit zero replaces the default and meets NewHermes's checks.
func newHermes(params json.RawMessage, cores int) (prefetch.Prefetcher, error) {
	cfg := prefetch.DefaultHermesConfig()
	if err := decodeParams("hermes", params, &cfg); err != nil {
		return nil, err
	}
	return prefetch.NewHermes(cfg, cores)
}

// WrapFilter composes the adaptive prefetch filter over an already
// constructed contender according to a spec's `filter` parameter block.
// A nil block means "no filter" and returns pf unchanged; any non-nil
// block (including `{}`, the tuned defaults) wraps; its fields decode
// over the tuned filter shape, so an explicit threshold_pct 0 disables
// filtering. Unknown fields and bad shapes are ErrInvalidConfig errors,
// like every parameter block.
func WrapFilter(pf prefetch.Prefetcher, params json.RawMessage) (prefetch.Prefetcher, error) {
	if params == nil {
		return pf, nil
	}
	cfg := prefetch.DefaultFilterConfig()
	if err := decodeParams("filter", params, &cfg); err != nil {
		return nil, err
	}
	return prefetch.NewFilter(pf, cfg)
}

// streamParams parameterize the stream prefetcher. The defaults are
// Figure 9's: 32 streams, degree 6.
type streamParams struct {
	Streams int `json:"streams"`
	Degree  int `json:"degree"`
}

// solihinParams parameterize the memory-side correlation engine. The
// defaults are Figure 9's Solihin 6,1 with a 1,048,576-entry table.
type solihinParams struct {
	Depth        int `json:"depth"`
	Width        int `json:"width"`
	TableEntries int `json:"table_entries"`
}

func degreeFactory(name string, build func(degree int) (prefetch.Prefetcher, error)) func(json.RawMessage, int) (prefetch.Prefetcher, error) {
	return func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
		p := degreeParams{Degree: 6}
		if err := decodeParams(name, params, &p); err != nil {
			return nil, err
		}
		return build(p.Degree)
	}
}

func builtinPrefetchers() map[string]PrefetcherEntry {
	return map[string]PrefetcherEntry{
		"none": { // no prefetching (the baseline machine)
			New: func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
				if err := decodeParams("none", params, &struct{}{}); err != nil {
					return nil, err
				}
				return prefetch.None{}, nil
			},
		},
		"ebcp": { // the epoch-based correlation prefetcher (tuned defaults; every knob overridable)
			New: newEBCP,
		},
		"chain": { // chaining correlation prefetcher: trigger→successor pairs, chains on prefetch hits
			New: newChain,
		},
		"hermes": { // Hermes-style perceptron off-chip predictor (early dispatch, no address prefetching)
			New: newHermes,
		},
		"ghb-small": { // global history buffer, 16K-entry index and buffer
			New: degreeFactory("ghb-small", func(d int) (prefetch.Prefetcher, error) { return prefetch.GHBSmall(d) }),
		},
		"ghb-large": { // global history buffer, 256K-entry index and buffer
			New: degreeFactory("ghb-large", func(d int) (prefetch.Prefetcher, error) { return prefetch.GHBLarge(d) }),
		},
		"tcp-small": { // tag correlating prefetcher, 2K-set pattern history table
			New: degreeFactory("tcp-small", func(d int) (prefetch.Prefetcher, error) { return prefetch.TCPSmall(d) }),
		},
		"tcp-large": { // tag correlating prefetcher, 32K-set pattern history table
			New: degreeFactory("tcp-large", func(d int) (prefetch.Prefetcher, error) { return prefetch.TCPLarge(d) }),
		},
		"stream": { // sequential stream prefetcher
			New: func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
				p := streamParams{Streams: 32, Degree: 6}
				if err := decodeParams("stream", params, &p); err != nil {
					return nil, err
				}
				return prefetch.NewStream(p.Streams, p.Degree)
			},
		},
		"sms": { // spatial memory streaming
			New: func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
				if err := decodeParams("sms", params, &struct{}{}); err != nil {
					return nil, err
				}
				return prefetch.NewSMS(), nil
			},
		},
		"solihin": { // Solihin's memory-side pair-correlation engine
			New: func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
				p := solihinParams{Depth: 6, Width: 1, TableEntries: 1 << 20}
				if err := decodeParams("solihin", params, &p); err != nil {
					return nil, err
				}
				return prefetch.NewSolihin(p.Depth, p.Width, p.TableEntries)
			},
		},
	}
}
