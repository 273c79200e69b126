// The built-in registry entries: every contender the paper's Figure 9
// comparison and the CMP extension use, and the four commercial
// workloads. Map literals make duplicate names a compile error; the
// specsync analyzer checks these names against the committed spec files
// under internal/exp/specs.
package registry

import (
	"encoding/json"

	"ebcp/internal/core"
	"ebcp/internal/prefetch"
	"ebcp/internal/workload"
)

// ebcpParams are the spec-settable knobs of the EBCP core. Every field
// is a pointer so a spec can distinguish "absent — keep the tuned
// default" from an explicit zero value (lru_writeback defaults to true,
// so expressing false requires exactly this distinction).
type ebcpParams struct {
	TableEntries    *int    `json:"table_entries"`
	TableMaxAddrs   *int    `json:"table_max_addrs"`
	Degree          *int    `json:"degree"`
	EMABEpochs      *int    `json:"emab_epochs"`
	VirtualWindow   *uint64 `json:"virtual_window"`
	Minus           *bool   `json:"minus"`
	LRUWriteback    *bool   `json:"lru_writeback"`
	NoVirtualEpochs *bool   `json:"no_virtual_epochs"`
}

func newEBCP(params json.RawMessage, cores int) (prefetch.Prefetcher, error) {
	p, err := decodeParams[ebcpParams]("ebcp", params)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	if p.TableEntries != nil {
		cfg.TableEntries = *p.TableEntries
	}
	if p.TableMaxAddrs != nil {
		cfg.TableMaxAddrs = *p.TableMaxAddrs
	}
	if p.Degree != nil {
		cfg.Degree = *p.Degree
	}
	if p.EMABEpochs != nil {
		cfg.EMABEpochs = *p.EMABEpochs
	}
	if p.VirtualWindow != nil {
		cfg.VirtualWindow = *p.VirtualWindow
	}
	if p.Minus != nil {
		cfg.Minus = *p.Minus
	}
	if p.LRUWriteback != nil {
		cfg.LRUWriteback = *p.LRUWriteback
	}
	if p.NoVirtualEpochs != nil {
		cfg.NoVirtualEpochs = *p.NoVirtualEpochs
	}
	cfg.Cores = cores
	return core.New(cfg)
}

// degreeParams parameterize the fixed-geometry comparison prefetchers.
type degreeParams struct {
	Degree int `json:"degree"`
}

// chainParams parameterize the chaining correlation prefetcher. Zero
// fields keep the tuned defaults (no knob has a meaningful zero).
type chainParams struct {
	Entries    int `json:"entries"`
	Successors int `json:"successors"`
	Window     int `json:"window"`
	Degree     int `json:"degree"`
}

func newChain(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
	p, err := decodeParams[chainParams]("chain", params)
	if err != nil {
		return nil, err
	}
	cfg := prefetch.DefaultChainConfig()
	if p.Entries != 0 {
		cfg.Entries = p.Entries
	}
	if p.Successors != 0 {
		cfg.Successors = p.Successors
	}
	if p.Window != 0 {
		cfg.Window = p.Window
	}
	if p.Degree != 0 {
		cfg.Degree = p.Degree
	}
	return prefetch.NewChain(cfg)
}

// hermesParams parameterize the perceptron off-chip predictor. Zero
// fields keep the tuned defaults (no knob has a meaningful zero).
type hermesParams struct {
	TableBits           int    `json:"table_bits"`
	ActivationThreshold int    `json:"activation_threshold"`
	TrainingThreshold   int    `json:"training_threshold"`
	EarlyCycles         uint64 `json:"early_cycles"`
	HistoryBits         int    `json:"history_bits"`
}

func newHermes(params json.RawMessage, cores int) (prefetch.Prefetcher, error) {
	p, err := decodeParams[hermesParams]("hermes", params)
	if err != nil {
		return nil, err
	}
	cfg := prefetch.DefaultHermesConfig()
	if p.TableBits != 0 {
		cfg.TableBits = p.TableBits
	}
	if p.ActivationThreshold != 0 {
		cfg.ActivationThreshold = p.ActivationThreshold
	}
	if p.TrainingThreshold != 0 {
		cfg.TrainingThreshold = p.TrainingThreshold
	}
	if p.EarlyCycles != 0 {
		cfg.EarlyCycles = p.EarlyCycles
	}
	if p.HistoryBits != 0 {
		cfg.HistoryBits = p.HistoryBits
	}
	return prefetch.NewHermes(cfg, cores)
}

// filterParams parameterize the adaptive prefetch-filter wrapper (the
// optional `filter` block of a spec's prefetcher reference). Pointer
// fields distinguish "absent — keep the tuned default" from an explicit
// zero: threshold_pct 0 meaningfully disables filtering.
type filterParams struct {
	TableEntries *int `json:"table_entries"`
	ThresholdPct *int `json:"threshold_pct"`
	Probe        *int `json:"probe"`
	Retry        *int `json:"retry"`
}

// WrapFilter composes the adaptive prefetch filter over an already
// constructed contender according to a spec's `filter` parameter block.
// A nil block means "no filter" and returns pf unchanged; any non-nil
// block (including `{}`, the tuned defaults) wraps. Unknown fields and
// bad shapes are ErrInvalidConfig errors, like every parameter block.
func WrapFilter(pf prefetch.Prefetcher, params json.RawMessage) (prefetch.Prefetcher, error) {
	if params == nil {
		return pf, nil
	}
	p, err := decodeParams[filterParams]("filter", params)
	if err != nil {
		return nil, err
	}
	cfg := prefetch.DefaultFilterConfig()
	if p.TableEntries != nil {
		cfg.TableEntries = *p.TableEntries
	}
	if p.ThresholdPct != nil {
		cfg.ThresholdPct = *p.ThresholdPct
	}
	if p.Probe != nil {
		cfg.Probe = *p.Probe
	}
	if p.Retry != nil {
		cfg.Retry = *p.Retry
	}
	return prefetch.NewFilter(pf, cfg)
}

// streamParams parameterize the stream prefetcher.
type streamParams struct {
	Streams int `json:"streams"`
	Degree  int `json:"degree"`
}

// solihinParams parameterize the memory-side correlation engine.
type solihinParams struct {
	Depth        int `json:"depth"`
	Width        int `json:"width"`
	TableEntries int `json:"table_entries"`
}

func degreeFactory(name string, build func(degree int) (prefetch.Prefetcher, error)) func(json.RawMessage, int) (prefetch.Prefetcher, error) {
	return func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
		p, err := decodeParams[degreeParams](name, params)
		if err != nil {
			return nil, err
		}
		return build(p.Degree)
	}
}

func builtinPrefetchers() map[string]PrefetcherEntry {
	entries := map[string]PrefetcherEntry{
		"none": { // no prefetching (the baseline machine)
			New: func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
				if _, err := decodeParams[struct{}]("none", params); err != nil {
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
				p, err := decodeParams[streamParams]("stream", params)
				if err != nil {
					return nil, err
				}
				return prefetch.NewStream(p.Streams, p.Degree)
			},
		},
		"sms": { // spatial memory streaming
			New: func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
				if _, err := decodeParams[struct{}]("sms", params); err != nil {
					return nil, err
				}
				return prefetch.NewSMS(), nil
			},
		},
		"solihin": { // Solihin's memory-side pair-correlation engine
			New: func(params json.RawMessage, _ int) (prefetch.Prefetcher, error) {
				p, err := decodeParams[solihinParams]("solihin", params)
				if err != nil {
					return nil, err
				}
				return prefetch.NewSolihin(p.Depth, p.Width, p.TableEntries)
			},
		},
	}
	return entries
}

func builtinWorkloads() map[string]WorkloadEntry {
	return map[string]WorkloadEntry{
		"Database":           {Params: workload.Database},           // OLTP database backend miss stream
		"TPC-W":              {Params: workload.TPCW},               // web-commerce application server miss stream
		"SPECjbb2005":        {Params: workload.SPECjbb2005},        // server-side Java business logic miss stream
		"SPECjAppServer2004": {Params: workload.SPECjAppServer2004}, // J2EE application server miss stream
	}
}
