// Package registry names the building blocks an experiment spec
// (ebcp.spec/v1, internal/spec) can reference: prefetcher constructors
// and workload-generator parameter sets, each registered under a short
// stable name. The spec compiler (internal/exp) resolves names through
// this package, so adding a contender or a workload touches exactly one
// place — its registration — instead of every experiment definition.
//
// The entries live in builtin.go as map literals (duplicate names are
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
	"ebcp/internal/workload"
)

// PrefetcherEntry is one named contender. New builds a fresh prefetcher
// from a spec's JSON parameter block (strict-decoded: unknown parameter
// fields are rejected) for a machine with the given core count; cores
// is 0 for single-core cells and the lane count for CMP cells.
type PrefetcherEntry struct {
	New func(params json.RawMessage, cores int) (prefetch.Prefetcher, error)
}

// WorkloadEntry is one named workload: Params returns the generator
// parameter set workload.New consumes.
type WorkloadEntry struct {
	Params func() workload.Params
}

var (
	prefetchers = builtinPrefetchers()
	workloads   = builtinWorkloads()
)

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

// Workload resolves a workload name, with the same error contract as
// Prefetcher.
func Workload(name string) (WorkloadEntry, error) {
	e, ok := workloads[name]
	if !ok {
		return WorkloadEntry{}, ebcperr.Invalidf("registry: unknown workload %q (registered: %s)",
			name, strings.Join(WorkloadNames(), ", "))
	}
	return e, nil
}

// PrefetcherNames returns every registered contender name, sorted.
func PrefetcherNames() []string {
	return sortedKeys(prefetchers)
}

// WorkloadNames returns every registered workload name, sorted.
func WorkloadNames() []string {
	return sortedKeys(workloads)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// decodeParams strict-decodes a constructor's parameter block into P.
// An absent or empty block yields the zero value, so parameterless
// entries accept both `"params": {}` and no params field at all.
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
	return p, nil
}
