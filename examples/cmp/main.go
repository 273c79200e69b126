// CMP: the paper's Section 6 future work — the epoch-based correlation
// prefetcher on a chip multiprocessor — and a demonstration of its
// Section 3.3.1 placement argument.
//
// N threads of SPECjbb2005 share the L2 cache, the memory interconnect
// and one prefetcher. EBCP's control sits in front of the core-to-L2
// crossbar, so it tracks each thread's epochs separately while sharing
// one main-memory correlation table. Solihin's memory-side engine sees
// only the interleaved miss stream — and the paper predicts that such
// "interleaved request streams do not exhibit sufficient correlation to
// enable effective prefetching".
//
//	go run ./examples/cmp
package main

import (
	"fmt"
	"os"

	"ebcp"
)

func main() {
	bench := ebcp.SPECjbb2005()

	fmt.Println("EBCP vs memory-side prefetching as cores scale (SPECjbb2005)")
	fmt.Printf("%8s %18s %22s\n", "cores", "EBCP speedup", "Solihin 6,1 speedup")

	for _, cores := range []int{1, 2, 4} {
		cfg := ebcp.DefaultSystem(bench)
		// Keep total simulated work roughly constant across core counts.
		cfg.WarmInsts = 24_000_000 / uint64(cores)
		cfg.MeasureInsts = 12_000_000 / uint64(cores)

		sources := func() []ebcp.TraceSource {
			out := make([]ebcp.TraceSource, cores)
			for i := range out {
				b := bench
				b.Seed += int64(i) * 7919 // independent threads of the server
				out[i] = must(ebcp.NewTrace(b))
			}
			return out
		}

		base := must(ebcp.RunCMP(sources(), ebcp.Baseline(), cfg))

		// The contenders of the committed cmp spec
		// (internal/exp/specs/cmp.json), with its parameter blocks.
		ebcpPF := must(ebcp.NewPrefetcher("ebcp", nil, cores))
		solihinPF := must(ebcp.NewPrefetcher("solihin", []byte(`{"depth": 6, "width": 1, "table_entries": 1048576}`), cores))
		withEBCP := must(ebcp.RunCMP(sources(), ebcpPF, cfg))
		withSol := must(ebcp.RunCMP(sources(), solihinPF, cfg))

		fmt.Printf("%8d %+17.1f%% %+21.1f%%\n",
			cores,
			100*(withEBCP.Speedup(base)-1),
			100*(withSol.Speedup(base)-1))
	}

	fmt.Println("\nEBCP keeps its benefit: per-thread EMABs at the crossbar see each")
	fmt.Println("miss stream separately. The memory-side prefetcher trains on the")
	fmt.Println("interleaved stream and its correlations dissolve as cores are added.")
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
