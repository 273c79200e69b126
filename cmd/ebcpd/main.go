// Command ebcpd is the experiment-serving daemon: a long-running HTTP
// process that runs the paper's experiments on demand and shares one
// content-hash result cache across every request, so identical cells
// are simulated once, ever.
//
//	ebcpd -addr 127.0.0.1:8344 &
//	curl -d '{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":300000,"measure_insts":200000,"bench_scale":0.05}' \
//	    http://127.0.0.1:8344/v1/run
//	curl http://127.0.0.1:8344/metrics
//
// Endpoints:
//
//	POST /v1/run   — one ebcp.runreq/v1 body in, one ebcp.report/v1
//	                 grid out. A full queue answers 429 + Retry-After.
//	GET  /healthz  — 200 while serving, 503 while draining.
//	GET  /metrics  — ebcp.servestats/v1: request/queue/cache counters
//	                 and latency histograms.
//
// SIGTERM (or SIGINT) drains gracefully: in-flight and queued requests
// finish (bounded by -drain-timeout), new ones are rejected, then the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ebcp/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 0, "concurrent requests executing (0 = all CPU cores)")
		simWorkers   = flag.Int("sim-workers", 1, "per-request simulation parallelism")
		queueDepth   = flag.Int("queue", 64, "max waiting requests before 429")
		cacheMB      = flag.Int64("cache-mb", 256, "shared result cache budget in MiB (0 = unbounded)")
		timeout      = flag.Duration("timeout", 0, "default per-request deadline (0 = none; requests may set timeout_ms)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
	)
	flag.Parse()

	if *workers < 0 || *simWorkers < 0 || *queueDepth <= 0 || *cacheMB < 0 || *drainTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "ebcpd: -workers/-sim-workers/-cache-mb must be non-negative; -queue/-drain-timeout positive")
		os.Exit(1)
	}

	budget := *cacheMB << 20
	if *cacheMB == 0 {
		budget = -1 // unbounded
	}
	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		SimWorkers:     *simWorkers,
		QueueDepth:     *queueDepth,
		CacheBytes:     budget,
		DefaultTimeout: *timeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebcpd: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebcpd: %v\n", err)
		os.Exit(1)
	}
	// The actual address (with the resolved port) goes to stderr so
	// supervisors and the smoke test can scrape it.
	fmt.Fprintf(os.Stderr, "ebcpd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "ebcpd: %v\n", err)
		os.Exit(1)
	}
	stop()
	fmt.Fprintln(os.Stderr, "ebcpd: draining")

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown stops the listener and waits for in-flight handlers (each
	// waiting on its job); Drain then retires the worker pool.
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "ebcpd: shutdown: %v\n", err)
		srv.Drain(dctx)
		os.Exit(1)
	}
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "ebcpd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ebcpd: drained, exiting")
}
