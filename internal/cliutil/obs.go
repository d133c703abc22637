package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof serves the standard profiling endpoints
	"os"
	"time"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/progress"
)

// ObsFlags holds the shared observability flag values every command in
// cmd/ exposes: -trace (JSON-lines event sink), -metrics (snapshot table
// on exit), -pprof (live profiling server) and -progress (live solve
// progress lines on stderr).
type ObsFlags struct {
	Trace    *string
	Metrics  *bool
	Pprof    *string
	Progress *bool
}

// BindObs registers the observability flags on the given FlagSet.
func BindObs(fs *flag.FlagSet) *ObsFlags {
	return &ObsFlags{
		Trace: fs.String("trace", "",
			`write JSON-lines observability events (spans, per-iteration residuals, progress) to this file ("-" = stderr)`),
		Metrics: fs.Bool("metrics", false,
			"print the metrics snapshot table on exit"),
		Pprof: fs.String("pprof", "",
			"serve net/http/pprof on this address (e.g. localhost:6060)"),
		Progress: fs.Bool("progress", false,
			"print live solve progress (iteration, residual, decay slope, ETA) to stderr"),
	}
}

// progressPrintEvery throttles the -progress stderr lines: at most one
// line per solve per this interval, plus every completion line.
const progressPrintEvery = 500 * time.Millisecond

// Obs bundles the configured observability sinks of one command run.
// Tracer is nil when neither -trace nor -progress is set; Run is the
// command's run handle, whose sink is Tracer. Solves run under Context,
// and a command's own spans go through Run.Span, so with both flags
// unset every probe takes the zero-cost disabled path.
type Obs struct {
	Registry *obs.Registry
	Tracer   obs.Tracer
	Run      *obs.Run
	file     *os.File
	jsonl    *obs.JSONL
	metrics  bool
}

// Context returns a context carrying the command's run handle.
func (o *Obs) Context() context.Context {
	return obs.WithRun(context.Background(), o.Run)
}

// Setup opens the trace sink and starts the pprof server as requested by
// the parsed flags. Call Close when the command finishes.
func (f *ObsFlags) Setup() (*Obs, error) {
	o := &Obs{Registry: obs.NewRegistry(), metrics: *f.Metrics}
	switch *f.Trace {
	case "":
	case "-":
		o.Tracer = obs.NewJSONL(os.Stderr)
	default:
		file, err := os.Create(*f.Trace)
		if err != nil {
			return nil, fmt.Errorf("open trace sink: %w", err)
		}
		o.file = file
		o.Tracer = obs.NewJSONL(file)
	}
	if j, ok := o.Tracer.(*obs.JSONL); ok {
		o.jsonl = j
		// Sticky-sink losses surface in the exit snapshot (and /metrics
		// when the registry is served), not only in Close's error.
		o.Registry.GaugeFunc("obs.jsonl_dropped", func() float64 { return float64(j.Dropped()) })
	}
	if *f.Progress {
		// The printer tees in front of any -trace sink: the JSONL file
		// still gets every event while stderr gets the throttled human
		// lines. Tol 0 selects the printer's default ETA target.
		o.Tracer = obs.Tee(progress.NewPrinter(os.Stderr, progressPrintEvery, 0), o.Tracer)
	}
	o.Run = &obs.Run{Sink: o.Tracer}
	if *f.Pprof != "" {
		addr := *f.Pprof
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}
	return o, nil
}

// Close flushes and closes the trace sink and, when -metrics was given,
// writes the snapshot table to w.
func (o *Obs) Close(w io.Writer) error {
	var err error
	if o.jsonl != nil {
		err = o.jsonl.Err()
	}
	if o.file != nil {
		if e := o.file.Close(); e != nil && err == nil {
			err = e
		}
	}
	if o.metrics {
		if _, e := fmt.Fprintln(w); e != nil && err == nil {
			err = e
		}
		if e := o.Registry.Snapshot().WriteText(w); e != nil && err == nil {
			err = e
		}
	}
	return err
}
