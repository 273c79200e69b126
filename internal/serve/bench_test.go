package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkServe measures the daemon's request path end to end — HTTP
// decode, queueing, session setup, cache, JSON render — over a real
// httptest listener, across the three load shapes the cache design
// targets:
//
//   - hit:   every request is identical; after the warmup request the
//     whole grid comes from the shared store.
//   - miss:  every request is unique (a fresh warm-window size), so
//     every cell simulates. This is the no-cache floor.
//   - mixed: alternating hit/miss, the steady state of a dashboard
//     re-querying a mostly-stable parameter space.
//
// One benchmark iteration is one *batch* of `clients` concurrent
// requests (ns/op is batch latency); the req/s metric normalizes across
// client counts, so one -bench run prints the 1/4/16-client serving
// curve directly. The hit-vs-miss ns/op ratio at equal client count is
// the cache's throughput multiplier.
func BenchmarkServe(b *testing.B) {
	for _, mode := range []string{"hit", "miss", "mixed"} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", mode, clients), func(b *testing.B) {
				benchServe(b, mode, clients)
			})
		}
	}
}

// benchBody builds the experiment request for one sequence number. Seq
// 0 is the canonical (cacheable) request; any other seq perturbs the
// warm window by a few instructions, which changes the session seed and
// therefore misses on every cell.
func benchBody(seq uint64) string {
	return fmt.Sprintf(`{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":%d,"measure_insts":100000,"bench_scale":0.05}`, 200_000+seq)
}

func benchServe(b *testing.B, mode string, clients int) {
	s, err := New(Config{Workers: runtime.NumCPU(), CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
	}}
	post := func(seq uint64) error {
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(benchBody(seq)))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	// Warm the canonical request so hit/mixed mode measures the served-
	// from-cache path, never the first computation.
	if err := post(0); err != nil {
		b.Fatal(err)
	}

	// seq starts after the warmup so miss-mode requests never collide
	// with it (or with earlier -count runs sharing the process: each
	// sub-benchmark owns a fresh Server, so only uniqueness within this
	// run matters).
	var seq atomic.Uint64
	next := func() uint64 {
		switch mode {
		case "hit":
			return 0
		case "miss":
			return seq.Add(1)
		default: // mixed: alternate canonical and fresh
			n := seq.Add(1)
			if n%2 == 0 {
				return 0
			}
			return n
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := post(next()); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()

	b.ReportMetric(float64(b.N*clients)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(clients), "clients")
	st := s.Stats()
	b.ReportMetric(st.Cache.HitRatio, "hit-ratio")
}
