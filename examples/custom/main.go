// Custom prefetcher: implement the library's Prefetcher interface and
// race your scheme against the paper's. This example builds a simple
// tagged next-N-line prefetcher and compares it with the stream
// prefetcher and EBCP on the database workload.
//
//	go run ./examples/custom
package main

import (
	"fmt"
	"os"

	"ebcp"
)

// nextN prefetches the next N sequential lines after every off-chip load
// miss — the simplest possible spatial scheme. It plugs into the
// simulator through the two-method Prefetcher interface; the
// PrefetchContext enforces the machine's bandwidth and priority rules
// (prefetches never delay demand accesses and are dropped when the
// low-priority queue fills).
type nextN struct {
	n int
}

func (p nextN) Name() string { return fmt.Sprintf("next-%d-line", p.n) }

func (p nextN) OnAccess(a ebcp.Access, ctx *ebcp.PrefetchContext) {
	// Train on real load misses only; the prefetch buffer hit already
	// means someone (we) got it right.
	if !a.Miss || a.IFetch || a.MissMerged {
		return
	}
	for i := 1; i <= p.n; i++ {
		ctx.Prefetch(a.Now, a.Line.Add(int64(i)), ebcp.NoTableIndex)
	}
}

func main() {
	bench := ebcp.Database()
	cfg := ebcp.DefaultSystem(bench)
	cfg.WarmInsts = 25_000_000
	cfg.MeasureInsts = 15_000_000

	base := must(ebcp.Run(must(ebcp.NewTrace(bench)), ebcp.Baseline(), cfg))
	fmt.Printf("workload %s, baseline CPI %.3f\n\n", bench.Name, base.CPI())
	fmt.Printf("%-14s %12s %10s %10s\n", "prefetcher", "improvement", "coverage", "accuracy")

	for _, pf := range []ebcp.Prefetcher{
		nextN{n: 1},
		nextN{n: 4},
		must(ebcp.NewPrefetcher("stream", []byte(`{"streams": 32, "degree": 6}`), 0)),
		must(ebcp.NewEBCP(ebcp.TunedEBCP())),
	} {
		res := must(ebcp.Run(must(ebcp.NewTrace(bench)), pf, cfg))
		fmt.Printf("%-14s %+11.1f%% %9.0f%% %9.0f%%\n",
			pf.Name(), 100*res.Improvement(base), 100*res.Coverage(), 100*res.Accuracy())
	}

	fmt.Println("\nnext-line prefetching catches the spatial fraction of the miss")
	fmt.Println("stream; the pointer-chased epoch triggers need correlation.")
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
