package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareMain implements `compare a.json b.json`: per workload and metric
// present in both documents, both values and relative interquartile
// ranges and, for bounded metrics, a verdict. It exits 1 when any verdict
// is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare reference.json change.json")
		return 2
	}
	var docs [2]DocV1
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		docs[i], err = decodeDoc(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 1
		}
	}
	worse := compareDocs(stdout, docs[0], docs[1])
	if worse > 0 {
		return 1
	}
	return 0
}

// compareDocs writes the comparison table and returns how many metrics
// got worse.
func compareDocs(w io.Writer, a, b DocV1) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tvalue a\tiqr a\tvalue b\tiqr b\tchange\tverdict")
	worse := 0
	for _, wa := range a.Workloads {
		var wb *WorkloadV1
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(tw, "%s\tfingerprint\t\t%.12s\t\t%.12s\t\t\tdiffers\n", wa.Name, wa.Fingerprint, wb.Fingerprint)
		}
		for _, ma := range wa.Metrics {
			for _, mb := range wb.Metrics {
				if mb.Name != ma.Name {
					continue
				}
				v := verdict(ma, mb)
				if v == verdictWorse {
					worse++
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.1f%%\t%.4g\t%.1f%%\t%+.1f%%\t%s\n",
					wa.Name, ma.Name, ma.Unit, ma.value(), 100*relSpread(ma), mb.value(), 100*relSpread(mb),
					100*relChange(ma, mb), v)
			}
		}
	}
	tw.Flush()
	return worse
}
