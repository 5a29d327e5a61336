// Command reproduce regenerates every table and figure of the paper
// from the simulation models. Use -only to run a single experiment and
// -quick for reduced campaign sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"mixedrel/internal/core"
	"mixedrel/internal/exec"
	"mixedrel/internal/report"
)

func main() {
	only := flag.String("only", "", "run a single experiment id (e.g. fig10a); empty runs all")
	quick := flag.Bool("quick", false, "reduced campaign sizes for a fast pass")
	seed := flag.Uint64("seed", 2019, "campaign sampling seed")
	trials := flag.Int("trials", 2000, "beam strikes per configuration")
	faults := flag.Int("faults", 2000, "injected faults per configuration")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "cross-configuration goroutines (campaigns run concurrently; never changes the tables)")
	sampleWorkers := flag.Int("sample-workers", 1, "beam-trial/injection goroutines inside one campaign (>1 changes the sample but stays deterministic)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	exec.SetMaxWorkers(*workers)
	cfg := core.Config{Seed: *seed, Trials: *trials, Faults: *faults, Quick: *quick,
		Workers: *workers, SampleWorkers: *sampleWorkers}

	if *list {
		for _, d := range core.Experiments {
			fmt.Printf("%-8s %s\n", d.ID, d.Title)
		}
		return
	}
	var tables []*report.Table
	var err error
	if *only != "" {
		d, ok := core.Get(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q (try -list)\n", *only)
			os.Exit(2)
		}
		var t *report.Table
		t, err = d.Run(cfg)
		tables = []*report.Table{t}
	} else {
		tables, err = core.RunAll(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		if err := render(t, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
	}
}

// render writes one table in the selected output format.
func render(t *report.Table, csv bool) error {
	if csv {
		return t.WriteCSV(os.Stdout)
	}
	return t.WriteASCII(os.Stdout)
}
