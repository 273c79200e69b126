package analysis

import "testing"

// BenchmarkLintModule times the whole lint pipeline — module load,
// type-check with the module-local importer, all seven analyzers — over
// this module, exactly what `make lint` and the CI lint-budget step
// run. Each iteration builds a fresh TypeChecker, so the number
// reported is the cold cost a CI invocation actually pays.
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := RunModule(".")
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("module is not lint-clean: %d diagnostics, first: %s", len(diags), diags[0])
		}
	}
}
