// Package hot is a hotpathalloc fixture: one annotated function per
// banned allocation shape, plus the shapes the analyzer must leave
// alone (parameter appends, unannotated functions, suppressed sites).
package hot

import "fmt"

type ring struct {
	buf  []int
	tags map[int]string
}

//ebcp:hotpath
func makes() {
	_ = make([]int, 8) // want `\[hotpathalloc\] hot path must not call make`
	_ = new(ring)      // want `\[hotpathalloc\] hot path must not call new`
}

//ebcp:hotpath
func literals() {
	_ = map[int]string{1: "a"} // want `\[hotpathalloc\] hot path map literal allocates`
	_ = []int{1, 2, 3}         // want `\[hotpathalloc\] hot path slice literal allocates`
	_ = [2]int{1, 2}           // fixed arrays are stack-resident: not flagged
	_ = ring{}                 // struct literals are fine too
}

//ebcp:hotpath
func appends(r *ring, scratch []int) []int {
	r.buf = append(r.buf, 1) // want `\[hotpathalloc\] hot path append target is not a parameter slice`
	scratch = append(scratch, 2)
	return append(scratch[:0], 3)
}

// shadowed appends to a local that shares a parameter's name: the
// target is judged by the object it denotes, not by its spelling.
//
//ebcp:hotpath
func shadowed(r *ring, scratch []int) []int {
	if scratch := r.buf; len(scratch) > 0 {
		scratch = append(scratch, 4) // want `\[hotpathalloc\] hot path append target is not a parameter slice`
		r.buf = scratch
	}
	return scratch
}

//ebcp:hotpath
func captures(n int) func() int {
	total := 0
	f := func() int { // want `\[hotpathalloc\] hot path closure captures local total`
		total += n
		return total
	}
	return f
}

//ebcp:hotpath
func conversions(b []byte, s string) int {
	_ = string(b) // want `\[hotpathalloc\] hot path string\(...\) conversion copies`
	_ = []byte(s) // want `\[hotpathalloc\] hot path \[\]byte\(...\) conversion copies`
	return len(b)
}

//ebcp:hotpath
func boxing(v int) {
	fmt.Println(v) // want `\[hotpathalloc\] hot path fmt.Println boxes its operands`
}

// cold is unannotated: it may allocate freely.
func cold() *ring {
	return &ring{buf: make([]int, 0, 16), tags: map[int]string{}}
}

//ebcp:hotpath
func amortized(r *ring) {
	r.buf = append(r.buf, 9) //ebcp:allow hotpathalloc fixture: amortized growth, reused via [:0]
}
