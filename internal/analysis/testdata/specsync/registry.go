// Package registry is the specsync fixture: a miniature builtin table
// pair plus, under internal/exp/specs, a set of spec files exercising
// every drift the analyzer reports. The test loads it under the virtual
// rel "internal/registry" with this directory playing the module root.
package registry // want "spec mismatch.json declares id" // want "spec notjson.json is not parseable JSON"

type entry struct{}

// Two spec-side findings anchor on the function whose namespace they
// miss in: bad-name.json references a prefetcher nobody registered.
func builtinPrefetchers() map[string]entry { // want `references unregistered prefetcher "markov"`
	return map[string]entry{
		"none":  {},
		"ebcp":  {},
		"ghost": {}, // want "not exercised by any canonical spec"
	}
}

// ...and bad-name.json also names a workload nobody registered.
func builtinWorkloads() map[string]entry { // want `names unregistered workload "SPECweb99"`
	return map[string]entry{
		"Database": {},
	}
}
