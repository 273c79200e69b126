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
	"ebcp/internal/metrics"
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

// decodeParams strict-decodes a constructor's parameter block over *p,
// which the caller pre-fills with the contender's defaults: a field the
// block leaves out keeps its default, and an explicit value, zero
// included, replaces it (and meets the constructor's checks). An absent
// or empty block leaves *p as it is, so parameterless entries accept
// both `"params": {}` and no params field at all. The block goes
// through metrics.ReadJSON, so unknown fields and anything after the
// block (possible in a block typed on ebcpsim's command line, never in
// a decoded spec) are rejected.
func decodeParams(name string, params json.RawMessage, p any) error {
	if len(params) == 0 {
		return nil
	}
	if err := metrics.ReadJSON(bytes.NewReader(params), p); err != nil {
		return ebcperr.Invalidf("registry: prefetcher %q params: %v", name, err)
	}
	return nil
}
