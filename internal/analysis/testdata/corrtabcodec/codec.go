// Package corrtabcodec is a determinism fixture loaded under the virtual
// path internal/corrtab: anything in that package that writes a table's
// rows must emit them in index order, so a map range feeding a writer
// is a diagnostic.
package corrtabcodec

import (
	"fmt"
	"io"
	"sort"
)

type row struct {
	tag   uint64
	addrs []uint64
}

type table struct {
	rows map[uint64]row
}

// encodeUnsorted is the bug the rule exists for: map iteration order
// would shuffle the wire form between runs.
func encodeUnsorted(w io.Writer, t *table) {
	for idx, r := range t.rows { // want `\[determinism\] range over a map feeds a writer`
		fmt.Fprintf(w, "%d: %d %v\n", idx, r.tag, r.addrs)
	}
}

// encodeSorted is the sanctioned form: collect indices, sort, then range
// the slice.
func encodeSorted(w io.Writer, t *table) {
	idxs := make([]uint64, 0, len(t.rows))
	for idx := range t.rows {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		r := t.rows[idx]
		fmt.Fprintf(w, "%d: %d %v\n", idx, r.tag, r.addrs)
	}
}
