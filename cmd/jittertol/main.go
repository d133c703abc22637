// Command jittertol computes sinusoidal jitter tolerance: the largest
// arcsine-distributed jitter amplitude the CDR tolerates while meeting a
// BER target. It sweeps either noise slot of the model (the paper: one
// can "mimic deterministic sinusoidally varying jitter by assigning the
// amplitude distribution of n_r appropriately") and can sweep counter
// lengths to show how the loop filter trades bandwidth against tolerance.
//
// Examples:
//
//	jittertol -preset fig5 -target 1e-6
//	jittertol -slot drift -target 1e-6 -counters 2,8,32
package main

import (
	"fmt"
	"os"

	"cdrstoch/internal/cliutil"
	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
)

func main() {
	app := cliutil.NewApp("jittertol")
	fs := app.Flags
	sf := app.Spec
	target := fs.Float64("target", 1e-6, "BER target")
	slotName := fs.String("slot", "eye", "jitter injection slot: eye (n_w) or drift (n_r)")
	maxAmp := fs.Float64("maxamp", 0.4, "maximum amplitude searched, UI")
	tolUI := fs.Float64("resolution", 0.005, "bisection resolution, UI")
	counters := fs.String("counters", "", "comma-separated counter lengths to sweep (empty = single run)")
	app.Parse(os.Args[1:])

	obsrv := app.Setup()
	solveOpt := core.SolveOptions{}
	solveOpt.Multigrid.Workers = *app.Workers
	solveOpt.Multigrid.Ctx = obsrv.Context()

	var slot experiments.SJSlot
	switch *slotName {
	case "eye":
		slot = experiments.SJEye
	case "drift":
		slot = experiments.SJDrift
	default:
		app.Fatal(fmt.Errorf("unknown slot %q", *slotName))
	}

	lengths := []int{0}
	if *counters != "" {
		var err error
		lengths, err = cliutil.ParseInts(*counters)
		if err != nil {
			app.Fatal(err)
		}
	}

	fmt.Printf("Sinusoidal jitter tolerance at BER ≤ %.1e (slot: %s)\n", *target, *slotName)
	fmt.Printf("%-8s %14s %14s\n", "counter", "tolerance(UI)", "base BER")
	for _, l := range lengths {
		spec, err := sf.Spec()
		if err != nil {
			app.Fatal(err)
		}
		label := spec.CounterLen
		if l > 0 {
			spec.CounterLen = l
			label = l
			if err := spec.Validate(); err != nil {
				app.Fatal(err)
			}
		}
		endSpan := obsrv.Run.Span(fmt.Sprintf("jittertol.counter.%d", label))
		searchDone := obsrv.Registry.Histogram("tolerance.search_ms").Time()
		base, err := experiments.BERWithSJ(spec, 0, slot, solveOpt)
		if err != nil {
			app.Fatal(err)
		}
		tol, err := experiments.JitterTolerance(spec, *target, slot, *maxAmp, *tolUI, solveOpt)
		searchDone()
		endSpan()
		if err != nil {
			app.Fatal(err)
		}
		obsrv.Registry.Counter("tolerance.searches").Inc()
		fmt.Printf("%-8d %14.4f %14.3e\n", label, tol, base)
	}
	if err := obsrv.Close(os.Stdout); err != nil {
		app.Fatal(err)
	}
}
