// Command cdrserved is the long-running CDR analysis service: an HTTP
// JSON daemon answering stationary/BER analyses, cycle-slip statistics
// and parameter sweeps over the model of the paper, with a
// content-addressed result cache (identical specs solve once and replay
// byte-identically), singleflight deduplication of concurrent identical
// requests, and context-cancellable solvers.
//
// Endpoints:
//
//	POST /v1/analyze   {"spec": {...}, "async": false, "backend": ""}
//	                   (matrix-free by default; "explicit" assembles the TPM)
//	POST /v1/slip      {"spec": {...}}
//	POST /v1/sweep     {"spec": {...}, "param": "counter", "values": [1,2,4]}
//	GET  /v1/jobs/{id}        poll an async job
//	GET  /v1/jobs/{id}/trace  solver trace events for an async job
//	GET  /v1/jobs/{id}/events live solve progress as Server-Sent Events
//	                          (start/span_start/iter/span_end/progress/
//	                          watchdog/done)
//	GET  /healthz             liveness + build info + cache/queue occupancy
//	GET  /metrics             registry snapshot (JSON, or Prometheus text
//	                          exposition under Accept: text/plain)
//	GET  /debug/flight        flight recorder dump (recent solver events)
//	GET  /debug/solves        finished solves' cost reports (the progress
//	                          table's finished tail, -solves rows);
//	                          ?trace= ?spec= ?endpoint= ?min_ms= ?limit=,
//	                          human table under Accept: text/plain
//	GET  /debug/progress      in-flight solves (the same table's live
//	                          rows: phase, residual, ETA, watchdog
//	                          state), human table under Accept: text/plain
//
// On SIGINT/SIGTERM the daemon stops accepting, drains queued jobs within
// the -drain budget, then exits 0.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cdrstoch/internal/buildinfo"
	"cdrstoch/internal/cliutil"
	"cdrstoch/internal/faults"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/serve"
)

func main() {
	app := cliutil.NewObsApp("cdrserved")
	fs := app.Flags
	addr := fs.String("addr", "127.0.0.1:8340", "listen address (port 0 picks a free port)")
	jobWorkers := fs.Int("job-workers", 2, "async job worker count")
	queue := fs.Int("queue", 8, "async job queue depth; a full queue answers 429")
	cacheN := fs.Int("cache", 256, "result cache capacity in entries")
	conc := fs.Int("concurrent", 4, "maximum simultaneous solves")
	timeout := fs.Duration("timeout", 120*time.Second, "synchronous request deadline")
	drainBudget := fs.Duration("drain", 30*time.Second, "graceful shutdown budget before canceling running jobs")
	flightN := fs.Int("flight", 0, "flight recorder ring size in events (0 = default)")
	solvesN := fs.Int("solves", 0, "finished solves kept for /debug/solves (0 = default)")
	costLog := fs.String("cost-log", "", "append per-solve cost reports as JSON lines to this file")
	stallWindow := fs.Duration("stall-window", 0, "watchdog staleness window: no events or residual improvement for this long marks a solve stalled (0 = default 10s)")
	wdInterval := fs.Duration("watchdog-interval", 0, "watchdog check cadence (0 = default 1s)")
	divergeChecks := fs.Int("diverge-checks", 0, "consecutive residual-growth checks before a solve is classified diverging (0 = default 3)")
	version := fs.Bool("version", false, "print build attribution and exit")
	app.Parse(os.Args[1:])
	if *version {
		fmt.Printf("cdrserved %s\n", buildinfo.Get())
		return
	}
	obsrv := app.Setup()

	// Chaos runs arm injection points via CDR_FAULTS (seeded by
	// CDR_FAULTS_SEED); unset leaves injection disabled at zero cost.
	inj, err := faults.FromEnv(obsrv.Registry)
	if err != nil {
		app.Fatal(err)
	}
	if inj != nil {
		fmt.Printf("cdrserved: %s\n", inj)
	}

	// Optional JSONL sink for per-solve cost reports; its sticky drop
	// count surfaces as the cost.log_dropped gauge.
	var costSink *obs.JSONL
	if *costLog != "" {
		f, err := os.OpenFile(*costLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			app.Fatal(err)
		}
		defer f.Close()
		costSink = obs.NewJSONL(f)
	}

	// GC/scheduler health gauges (runtime.*) read runtime/metrics at
	// scrape time.
	cost.RegisterRuntimeGauges(obsrv.Registry)

	srv := serve.NewServer(serve.ServerConfig{
		Engine: serve.EngineConfig{
			CacheEntries:  *cacheN,
			MaxConcurrent: *conc,
			SolveWorkers:  *app.Workers,
			CostLog:       costSink,
		},
		Workers:      *jobWorkers,
		QueueDepth:   *queue,
		SyncTimeout:  *timeout,
		Registry:     obsrv.Registry,
		Tracer:       obsrv.Tracer,
		FlightSize:   *flightN,
		CostRingSize: *solvesN,
		Faults:       inj,
		ErrorLog:     log.New(os.Stderr, "cdrserved: ", log.LstdFlags|log.LUTC),

		StallWindow:      *stallWindow,
		WatchdogInterval: *wdInterval,
		DivergeChecks:    *divergeChecks,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		app.Fatal(err)
	}
	// The smoke tests parse this line to discover a :0-assigned port;
	// keep its shape stable.
	fmt.Printf("cdrserved: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("cdrserved: %v: draining\n", s)
	case err := <-serveErr:
		app.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainBudget)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "cdrserved: shutdown:", err)
	}
	drained := make(chan struct{})
	go func() {
		srv.Close() // lets queued jobs finish
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "cdrserved: drain budget exhausted, canceling running jobs")
		srv.CancelJobs()
		<-drained
	}
	if err := obsrv.Close(os.Stdout); err != nil {
		app.Fatal(err)
	}
	fmt.Println("cdrserved: drained, exiting")
}
