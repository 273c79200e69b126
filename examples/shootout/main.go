// Shootout: every prefetcher of the paper's Figure 9 comparison on one
// workload, ranked by overall performance improvement.
//
//	go run ./examples/shootout [benchmark]
package main

import (
	"fmt"
	"os"
	"sort"

	"ebcp"
)

func main() {
	name := "SPECjbb2005"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	bench, err := ebcp.BenchmarkByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "benchmarks: Database | TPC-W | SPECjbb2005 | SPECjAppServer2004")
		os.Exit(2)
	}

	cfg := ebcp.DefaultSystem(bench)
	cfg.WarmInsts = 40_000_000
	cfg.MeasureInsts = 20_000_000

	fmt.Printf("prefetcher shootout on %s (degree 6, 64-entry prefetch buffer)\n\n", bench.Name)
	base := must(ebcp.Run(must(ebcp.NewTrace(bench)), ebcp.Baseline(), cfg))
	fmt.Printf("baseline CPI %.3f\n\n", base.CPI())

	// The contenders of the committed fig9 spec
	// (internal/exp/specs/fig9.json), with its parameter blocks.
	contenders := []struct{ name, params string }{
		{"ghb-small", `{"degree": 6}`},
		{"ghb-large", `{"degree": 6}`},
		{"tcp-small", `{"degree": 6}`},
		{"tcp-large", `{"degree": 6}`},
		{"stream", `{"streams": 32, "degree": 6}`},
		{"sms", ``},
		{"solihin", `{"depth": 3, "width": 2, "table_entries": 1048576}`},
		{"solihin", `{"depth": 6, "width": 1, "table_entries": 1048576}`},
		{"ebcp", `{"degree": 6, "table_max_addrs": 6, "minus": true}`},
		{"ebcp", `{"degree": 6, "table_max_addrs": 6}`},
	}

	type entry struct {
		name          string
		imp, cov, acc float64
	}
	var table []entry
	for _, c := range contenders {
		pf := must(ebcp.NewPrefetcher(c.name, []byte(c.params), 0))
		res := must(ebcp.Run(must(ebcp.NewTrace(bench)), pf, cfg))
		table = append(table, entry{
			name: pf.Name(),
			imp:  100 * res.Improvement(base),
			cov:  100 * res.Coverage(),
			acc:  100 * res.Accuracy(),
		})
		fmt.Printf("  ran %-12s %+6.1f%%\n", pf.Name(), table[len(table)-1].imp)
	}

	sort.Slice(table, func(i, j int) bool { return table[i].imp > table[j].imp })
	fmt.Printf("\n%-14s %12s %10s %10s\n", "prefetcher", "improvement", "coverage", "accuracy")
	for i, e := range table {
		fmt.Printf("%d. %-12s %+11.1f%% %9.0f%% %9.0f%%\n", i+1, e.name, e.imp, e.cov, e.acc)
	}
}

// must unwraps a (value, error) pair, exiting on error; example-sized
// error handling.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return v
}
