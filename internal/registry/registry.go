// Package registry is the one table that turns a contender name and its
// parameter block into a prefetcher. Experiment specs (ebcp.spec/v1,
// internal/spec), ebcpsim's -prefetcher/-params, the ebcp facade's
// NewPrefetcher, ebcpd and the benchmark all build contenders through
// it, so adding a contender touches exactly one place — its
// registration — instead of every caller. Workloads are not registered:
// workload.All is the one list, and workload.ByName resolves a name.
//
// The entries live in builtin.go as a map literal (duplicate names are
// then a compile error) and are read-only after package initialization,
// so lookups need no locking. TestCanonicalSpecsMatchRegistry in
// internal/exp keeps the built-in names and the committed spec files
// under internal/exp/specs in sync.
package registry

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"

	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
)

// PrefetcherEntry is one named contender. New builds a fresh prefetcher
// from a spec's JSON parameter block (strict-decoded: unknown parameter
// fields are rejected) for a machine with the given core count; cores
// is 0 for single-core cells and the lane count for CMP cells.
type PrefetcherEntry struct {
	New func(params json.RawMessage, cores int) (prefetch.Prefetcher, error)
}

var prefetchers = builtinPrefetchers()

// Prefetcher resolves a contender name. Unknown names are
// ErrInvalidConfig errors listing what is registered.
func Prefetcher(name string) (PrefetcherEntry, error) {
	e, ok := prefetchers[name]
	if !ok {
		return PrefetcherEntry{}, ebcperr.Invalidf("registry: unknown prefetcher %q (registered: %s)",
			name, strings.Join(PrefetcherNames(), ", "))
	}
	return e, nil
}

// PrefetcherNames returns every registered contender name, sorted.
func PrefetcherNames() []string {
	names := make([]string, 0, len(prefetchers))
	for name := range prefetchers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// decodeParams strict-decodes a constructor's parameter block into P.
// An absent or empty block yields the zero value, so parameterless
// entries accept both `"params": {}` and no params field at all. A
// block is one JSON value: anything after it (possible in a block
// typed on ebcpsim's command line, never in a decoded spec) is
// rejected like an unknown field.
func decodeParams[P any](name string, params json.RawMessage) (P, error) {
	var p P
	if len(params) == 0 {
		return p, nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return p, ebcperr.Invalidf("registry: prefetcher %q params: %v", name, err)
	}
	if len(bytes.TrimSpace(params[dec.InputOffset():])) > 0 {
		return p, ebcperr.Invalidf("registry: prefetcher %q params: data after the parameter block", name)
	}
	return p, nil
}
