// Command tpmspy renders the nonzero pattern of the CDR transition
// probability matrix — the paper's Figure 3 — as ASCII art on stdout, or
// as a PGM image / MatrixMarket file when an output path is given.
//
// Examples:
//
//	tpmspy -preset base -w 96 -h 48
//	tpmspy -preset base -pgm fig3.pgm
//	tpmspy -counter 2 -grid 16 -mm tpm.mtx
package main

import (
	"fmt"
	"os"

	"cdrstoch/internal/cliutil"
	"cdrstoch/internal/core"
)

func main() {
	app := cliutil.NewApp("tpmspy")
	fs := app.Flags
	sf := app.Spec
	w := fs.Int("w", 96, "ASCII pattern width in characters")
	h := fs.Int("h", 48, "ASCII pattern height in characters")
	pgm := fs.String("pgm", "", "write a 512x512 PGM image of the pattern to this path")
	mm := fs.String("mm", "", "write the full matrix in MatrixMarket format to this path")
	app.Parse(os.Args[1:])
	obsrv := app.Setup()
	spec, err := sf.Spec()
	if err != nil {
		app.Fatal(err)
	}
	buildDone := obsrv.Registry.Timer("build").Time()
	endBuild := obsrv.Run.Span("tpmspy.build")
	m, err := core.Build(spec)
	endBuild()
	buildDone()
	if err != nil {
		app.Fatal(err)
	}
	n := m.NumStates()
	obsrv.Registry.Gauge("model.states").Set(float64(n))
	obsrv.Registry.Gauge("model.nnz").Set(float64(m.P.NNZ()))
	fmt.Printf("TPM: %d x %d, %d nonzeros (%.4f%% dense), bandwidth %d\n",
		n, n, m.P.NNZ(), 100*float64(m.P.NNZ())/float64(n)/float64(n), m.P.Bandwidth())

	if *pgm != "" {
		f, err := os.Create(*pgm)
		if err != nil {
			app.Fatal(err)
		}
		if err := m.P.WritePGM(f, 512, 512); err != nil {
			app.Fatal(err)
		}
		if err := f.Close(); err != nil {
			app.Fatal(err)
		}
		fmt.Println("wrote", *pgm)
	}
	if *mm != "" {
		f, err := os.Create(*mm)
		if err != nil {
			app.Fatal(err)
		}
		if err := m.P.WriteMatrixMarket(f); err != nil {
			app.Fatal(err)
		}
		if err := f.Close(); err != nil {
			app.Fatal(err)
		}
		fmt.Println("wrote", *mm)
	}
	if *pgm == "" && *mm == "" {
		fmt.Print(m.P.Pattern(*w, *h))
	}
	if err := obsrv.Close(os.Stdout); err != nil {
		app.Fatal(err)
	}
}
