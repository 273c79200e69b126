// OLTP study: the motivating workload of the paper. Runs the database
// benchmark without prefetching and with the tuned EBCP, and breaks the
// result down the way Section 5 discusses it: where the cycles go, which
// window-termination conditions end epochs, what the prefetcher's table
// traffic costs, and how the epoch model's performance equation holds.
//
//	go run ./examples/oltp
package main

import (
	"fmt"
	"os"

	"ebcp"
)

func main() {
	bench := ebcp.Database()
	cfg := ebcp.DefaultSystem(bench)
	cfg.WarmInsts = 40_000_000
	cfg.MeasureInsts = 25_000_000

	fmt.Println("=== Database OLTP under the epoch MLP model ===")

	base := must(ebcp.Run(must(ebcp.NewTrace(bench)), ebcp.Baseline(), cfg))
	show("baseline (no prefetching)", base)

	pf := must(ebcp.NewEBCP(ebcp.TunedEBCP()))
	res := must(ebcp.Run(must(ebcp.NewTrace(bench)), pf, cfg))
	show("tuned EBCP (1M-entry main-memory table, degree 8)", res)

	fmt.Println("=== prefetcher internals ===")
	st := pf.Stats()
	ts := pf.Table().Stats()
	fmt.Printf("epoch boundaries observed: %d (%d real, %d sustained by prefetch-buffer hits)\n",
		st.Boundaries, st.RealBoundaries, st.Boundaries-st.RealBoundaries)
	fmt.Printf("table lookups: %d, matches: %d (%.0f%%)\n",
		st.Lookups, st.Matches, 100*float64(st.Matches)/float64(max(st.Lookups, 1)))
	fmt.Printf("table trainings: %d, LRU touches from buffer hits: %d\n", st.Trainings, st.LRUTouches)
	fmt.Printf("table occupancy: %d entries (of %d architected), conflicts: %d\n",
		pf.Table().Occupancy(), pf.Config().TableEntries, ts.ConflictEvictions)

	fmt.Println("\n=== memory traffic (measurement window) ===")
	m := res.Mem
	fmt.Printf("demand reads:    %d\n", m.Demand.Reads)
	fmt.Printf("table reads:     %d (dropped %d)\n", m.TableRead.Reads, m.TableRead.ReadDrops)
	fmt.Printf("prefetch reads:  %d (dropped %d)\n", m.Prefetch.Reads, m.Prefetch.ReadDrops)
	fmt.Printf("table writes:    %d (dropped %d)\n", m.TableWrite.Writes, m.TableWrite.WriteDrops)

	fmt.Println("\n=== headline ===")
	fmt.Printf("overall performance improvement: %+.1f%% (paper, full windows: +23%%)\n",
		100*res.Improvement(base))
	fmt.Printf("EPI reduction:                   %+.1f%%\n", 100*res.EPIReduction(base))
}

func show(label string, r ebcp.Result) {
	c := r.Core
	fmt.Printf("\n--- %s ---\n", label)
	fmt.Printf("CPI %.3f  (on-chip %.3f + epoch stalls %.3f)\n",
		r.CPI(),
		float64(c.OnChipCycles)/float64(c.Instructions),
		float64(c.StallCycles)/float64(c.Instructions))
	fmt.Printf("epochs/1000 insts %.2f; window terminations: ROB-full %d, branch-on-miss %d, ifetch %d, serializing %d\n",
		r.EPKI(), c.ClosesByReason[0], c.ClosesByReason[4], c.ClosesByReason[3], c.ClosesByReason[2])
	fmt.Printf("L2 misses: %.2f inst + %.2f load per 1000 insts\n", r.IFetchMPKI(), r.LoadMPKI())
	if r.Prefetcher != "none" {
		fmt.Printf("prefetch coverage %.0f%%, accuracy %.0f%% (%d full + %d in-flight buffer hits)\n",
			100*r.Coverage(), 100*r.Accuracy(), r.PB.Hits, r.PB.PartialHits)
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
