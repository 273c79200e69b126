package trace_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// nextOnly hides a source's ReadBatch, so the reader takes FillBatch's
// per-record fallback.
type nextOnly struct{ s trace.Source }

func (n nextOnly) Next() (trace.Record, bool) { return n.s.Next() }

// aheadCase builds the same source twice: once for trace.Ahead and once
// for the reference Next loop. want caps an endless source.
type aheadCase struct {
	name string
	make func() trace.Source
	want int
}

func aheadCases(t *testing.T) []aheadCase {
	t.Helper()
	b, err := workload.ByName("Database")
	if err != nil {
		t.Fatal(err)
	}
	gen := func() trace.Source {
		g, err := workload.New(b)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	slice := func(n int, seed int64) func() trace.Source {
		recs := trace.RandomRecords(n, seed)
		return func() trace.Source { return trace.NewSlice(recs) }
	}
	const batch = trace.AheadBatch
	var cases []aheadCase
	for i, n := range []int{0, 1, batch - 1, batch, batch + 1, 3*batch + 17} {
		cases = append(cases, aheadCase{name: fmt.Sprintf("slice/%d", n), make: slice(n, int64(i))})
	}
	long := trace.RandomRecords(5*batch, 99)
	cases = append(cases,
		aheadCase{name: "nextOnly/2batch+5", make: func() trace.Source {
			return nextOnly{trace.NewSlice(long[:2*batch+5])}
		}},
		aheadCase{name: "nextOnly/empty", make: func() trace.Source { return nextOnly{trace.NewSlice(nil)} }},
		aheadCase{name: "limit/slice", make: func() trace.Source {
			return trace.NewLimit(trace.NewSlice(long), 700_000)
		}},
		aheadCase{name: "limit/generator", make: func() trace.Source { return trace.NewLimit(gen(), 150_000) }},
		aheadCase{name: "limit/zero", make: func() trace.Source { return trace.NewLimit(gen(), 0) }},
		aheadCase{name: "generator/endless", make: gen, want: 4*batch + 3},
	)
	return cases
}

// reference reads want records (all of them when want is 0) by Next.
func reference(src trace.Source, want int) []trace.Record {
	var out []trace.Record
	for want == 0 || len(out) < want {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// TestAheadExactSequence is the read-ahead's property test: with every
// kind of source read at once, in a random Next(i) order, each source
// delivers exactly the records a plain Next loop reads from it, and end
// of stream is sticky.
func TestAheadExactSequence(t *testing.T) {
	cases := aheadCases(t)
	for seed := int64(1); seed <= 3; seed++ {
		srcs := make([]trace.Source, len(cases))
		for i, c := range cases {
			srcs[i] = c.make()
		}
		a := trace.NewAhead(srcs)
		got := make([][]trace.Record, len(cases))
		live := make([]int, len(cases))
		for i := range live {
			live[i] = i
		}
		rng := rand.New(rand.NewSource(seed))
		for len(live) > 0 {
			k := rng.Intn(len(live))
			i := live[k]
			batch := a.Next(i)
			got[i] = append(got[i], batch...)
			if len(batch) == 0 && len(a.Next(i)) != 0 {
				t.Errorf("seed %d, %s: Next after end of stream returned records", seed, cases[i].name)
			}
			if len(batch) == 0 || (cases[i].want > 0 && len(got[i]) >= cases[i].want) {
				live = append(live[:k], live[k+1:]...)
			}
		}
		a.Close()
		for i, c := range cases {
			want := reference(c.make(), c.want)
			g := got[i]
			if c.want > 0 && len(g) > c.want {
				g = g[:c.want]
			}
			if len(g) != len(want) {
				t.Errorf("seed %d, %s: %d records, want %d", seed, c.name, len(g), len(want))
				continue
			}
			for j := range want {
				if g[j] != want[j] {
					t.Errorf("seed %d, %s: record %d = %+v, want %+v", seed, c.name, j, g[j], want[j])
					break
				}
			}
		}
	}
}

// closeSettles closes a, failing if Close hangs, and waits for the
// goroutine count to settle back to before.
func closeSettles(t *testing.T, a *trace.Ahead, before int) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after Close", before, g)
	}
}

// TestAheadCloseNoLeak closes readers before, during and after their
// streams: Close returns and the reader goroutine is gone.
func TestAheadCloseNoLeak(t *testing.T) {
	endless := func(n int) []trace.Source {
		srcs := make([]trace.Source, n)
		for i := range srcs {
			g, err := workload.New(workload.SPECjbb2005())
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = g
		}
		return srcs
	}
	cases := []struct {
		name  string
		srcs  func() []trace.Source
		reads int // Next calls per source before Close; -1 drains
	}{
		{"unread", func() []trace.Source { return endless(4) }, 0},
		{"mid-stream", func() []trace.Source { return endless(16) }, 3},
		{"after-end", func() []trace.Source {
			return []trace.Source{trace.NewSlice(trace.RandomRecords(2500, 1)), trace.NewSlice(nil)}
		}, -1},
		{"no-sources", func() []trace.Source { return nil }, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srcs := c.srcs()
			before := runtime.NumGoroutine()
			a := trace.NewAhead(srcs)
			for i := range srcs {
				for k := 0; c.reads < 0 || k < c.reads; k++ {
					if len(a.Next(i)) == 0 {
						break
					}
				}
			}
			closeSettles(t, a, before)
		})
	}
}
