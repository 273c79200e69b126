// Package render is a determinism fixture; the golden test loads it
// under the virtual path internal/exp so the render-path map-range rule
// applies alongside the module-wide time/rand rules.
package render

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"ebcp/internal/spec"
)

type table struct {
	cells map[string]float64
}

func stamp() int64 {
	return time.Now().Unix() // want `\[determinism\] time.Now leaks wall-clock state`
}

func jitter() float64 {
	return rand.Float64() // want `\[determinism\] global math/rand.Float64 shares unseeded state`
}

// clock holds time.Now as a value: a reference, not only a call, is
// flagged.
func clock() func() time.Time {
	return time.Now // want `\[determinism\] time.Now leaks wall-clock state`
}

// seeded streams are explicitly deterministic: not flagged.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func renderUnsorted(w io.Writer, t *table) {
	for k, v := range t.cells { // want `\[determinism\] range over a map does more than collect into sorted slices`
		fmt.Fprintf(w, "%s=%v\n", k, v)
	}
}

// renderSorted is the sanctioned fix: collect the keys, sort, range the
// slice. The append inside the map range is part of the idiom.
func renderSorted(w io.Writer, t *table) {
	keys := make([]string, 0, len(t.cells))
	for k := range t.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%v\n", k, t.cells[k])
	}
}

// keysSortingOther sorts a slice, but not the one the map range fills:
// the keys leave in iteration order.
func keysSortingOther(t *table, other []string) []string {
	var keys []string
	for k := range t.cells { // want `\[determinism\] range over a map does more than collect into sorted slices`
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}

// keysSortedTooEarly sorts the right slice before the map range fills
// it: the appended keys still leave in iteration order.
func keysSortedTooEarly(t *table) []string {
	keys := []string{"first"}
	sort.Strings(keys)
	for k := range t.cells { // want `\[determinism\] range over a map does more than collect into sorted slices`
		keys = append(keys, k)
	}
	return keys
}

// keysSortedAsInterface sorts the filled slice through a conversion:
// not flagged.
func keysSortedAsInterface(t *table) []string {
	var keys []string
	for k := range t.cells {
		keys = append(keys, k)
	}
	sort.Sort(sort.StringSlice(keys))
	return keys
}

// joinUnsorted builds a string in iteration order: no writer is called,
// but the string is output all the same.
func joinUnsorted(t *table) string {
	s := ""
	for k := range t.cells { // want `\[determinism\] range over a map does more than collect into sorted slices`
		s += k + ","
	}
	return s
}

func localMap(w io.Writer) {
	m := make(map[int]int)
	for k := range m { // want `\[determinism\] range over a map does more than collect into sorted slices`
		fmt.Fprintln(w, k)
	}
}

// renderSpecCells ranges over a map field declared in another package:
// the range expression's type decides, not where the field lives.
func renderSpecCells(w io.Writer, sp spec.SpecV1) {
	for name, c := range sp.Cells { // want `\[determinism\] range over a map does more than collect into sorted slices`
		fmt.Fprintf(w, "%s=%s\n", name, c.Key)
	}
}

// renderSpecCellsSorted is the sorted-keys fix of renderSpecCells.
func renderSpecCellsSorted(w io.Writer, sp spec.SpecV1) {
	names := make([]string, 0, len(sp.Cells))
	for name := range sp.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s=%s\n", name, sp.Cells[name].Key)
	}
}

func probeMap(m map[string]int) map[string]int { return m }

// renderCallResult ranges over a map a call returns.
func renderCallResult(w io.Writer, m map[string]int) {
	for k := range probeMap(m) { // want `\[determinism\] range over a map does more than collect into sorted slices`
		fmt.Fprintln(w, k)
	}
}

// seededStream calls methods of a seeded stream that share their names
// with the global functions: not flagged.
func seededStream(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64() + float64(r.Intn(4))
}

func sliceRange(w io.Writer, rows []float64) {
	for _, v := range rows {
		fmt.Fprintln(w, v)
	}
}

func sanctioned() int64 {
	return time.Now().UnixNano() //ebcp:allow determinism fixture: demonstrates suppressing the wall-clock check
}
