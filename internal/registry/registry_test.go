package registry

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
)

// TestBuiltinPrefetchersBuild resolves and constructs every built-in
// contender with the parameter blocks the canonical specs use.
func TestBuiltinPrefetchersBuild(t *testing.T) {
	cases := map[string]string{
		"none":      ``,
		"ebcp":      `{"degree": 6, "table_max_addrs": 6, "lru_writeback": false}`,
		"ghb-small": `{"degree": 6}`,
		"ghb-large": `{"degree": 6}`,
		"tcp-small": `{"degree": 6}`,
		"tcp-large": `{"degree": 6}`,
		"stream":    `{"streams": 32, "degree": 6}`,
		"sms":       ``,
		"solihin":   `{"depth": 6, "width": 1, "table_entries": 1048576}`,
		"chain":     `{"entries": 65536, "successors": 8, "window": 4, "degree": 4}`,
		"hermes":    `{"table_bits": 11, "activation_threshold": 8, "early_cycles": 24}`,
	}
	if got, want := len(PrefetcherNames()), len(cases); got < want {
		t.Fatalf("PrefetcherNames() has %d entries, want at least %d", got, want)
	}
	for name, params := range cases {
		e, err := Prefetcher(name)
		if err != nil {
			t.Errorf("Prefetcher(%q): %v", name, err)
			continue
		}
		pf, err := e.New(json.RawMessage(params), 0)
		if err != nil {
			t.Errorf("building %q: %v", name, err)
		}
		if pf == nil {
			t.Errorf("building %q returned a nil prefetcher", name)
		}
	}
}

// TestUnknownNames pins the error contract: ErrInvalidConfig, naming
// the unknown and listing what is registered.
func TestUnknownNames(t *testing.T) {
	if _, err := Prefetcher("markov"); err == nil {
		t.Error("Prefetcher(markov) succeeded")
	} else if !errors.Is(err, ebcperr.ErrInvalidConfig) {
		t.Errorf("Prefetcher(markov) error not ErrInvalidConfig: %v", err)
	} else if !strings.Contains(err.Error(), `"markov"`) || !strings.Contains(err.Error(), "ebcp") {
		t.Errorf("error should name the unknown and list registered names: %v", err)
	}
}

// TestStrictParams: unknown parameter fields, params on parameterless
// prefetchers, malformed blocks and data after a block are rejected,
// like every other strict decoder in the repo.
func TestStrictParams(t *testing.T) {
	cases := []struct{ name, params string }{
		{"ebcp", `{"degre": 6}`},
		{"none", `{"degree": 6}`},
		{"sms", `{"streams": 4}`},
		{"solihin", `{"depth": 6, "width": 1, "entries": 4}`},
		{"chain", `{"widow": 4}`},
		{"chain", `{"entries": 1000}`},
		{"hermes", `{"tablebits": 11}`},
		{"hermes", `{"table_bits": 99}`},
		{"ebcp", `x`},
		{"ghb-small", `{"degree": 6} {"degree": 7}`},
		{"none", `{} x`},
	}
	for _, c := range cases {
		e, err := Prefetcher(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.New(json.RawMessage(c.params), 0); err == nil {
			t.Errorf("%s with params %s built; want unknown-field rejection", c.name, c.params)
		} else if !errors.Is(err, ebcperr.ErrInvalidConfig) {
			t.Errorf("%s param error not ErrInvalidConfig: %v", c.name, err)
		}
	}
}

// TestWrapFilter pins the filter block's contract: nil means no
// wrapping, {} wraps with the tuned defaults, unknown fields and bad
// shapes are strict ErrInvalidConfig rejections.
func TestWrapFilter(t *testing.T) {
	inner := prefetch.None{}
	if pf, err := WrapFilter(inner, nil); err != nil || pf != prefetch.Prefetcher(inner) {
		t.Errorf("WrapFilter(nil block) = (%v, %v), want the inner prefetcher unchanged", pf, err)
	}
	pf, err := WrapFilter(inner, json.RawMessage(`{}`))
	if err != nil {
		t.Fatalf("WrapFilter({}): %v", err)
	}
	if got := pf.Name(); got != "none+filter" {
		t.Errorf("WrapFilter({}).Name() = %q, want %q", got, "none+filter")
	}
	if pf, err := WrapFilter(inner, json.RawMessage(`{"threshold_pct": 0}`)); err != nil {
		t.Errorf("explicit threshold_pct 0 must be expressible: %v", err)
	} else if pf.Name() != "none+filter" {
		t.Errorf("threshold-0 wrap produced %q", pf.Name())
	}
	for _, bad := range []string{
		`{"thresholdpct": 20}`,
		`{"threshold_pct": 101}`,
		`{"table_entries": 1000}`,
		`{"probe": 0}`,
		`{"retry": 0}`,
	} {
		if _, err := WrapFilter(inner, json.RawMessage(bad)); err == nil {
			t.Errorf("WrapFilter(%s) accepted, want rejection", bad)
		} else if !errors.Is(err, ebcperr.ErrInvalidConfig) {
			t.Errorf("WrapFilter(%s) error not ErrInvalidConfig: %v", bad, err)
		}
	}
}
