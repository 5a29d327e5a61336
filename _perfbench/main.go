// Command perfbench is mixedrel's end-to-end benchmark. It measures the
// two things the paper's users wait on — regenerating the tables and
// running an injection campaign to a stated accuracy — as two
// workloads:
//
//	reproduce-quick  reproduce -quick, cold, in a fresh process
//	lud-adaptive     an adaptive, checkpointed campaign on LUD to a CI target
//
// Usage (from the checkout root, through the build wrapper):
//
//	bash _perfbench/run.sh --workload lud-adaptive --seed 1 --seconds 55 --trace 0
//	bash _perfbench/run.sh compare BASE HEAD
//
// Each run repeats the workload in fresh child processes for the given
// number of seconds, checks every repetition's output, and prints as
// its last line a JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced run (--trace 1). End-to-end
// times are scaled to a reference host speed by a calibration loop
// timed between repetitions (calib.go). Result records
// are kept under .bench_build/results; compare prints the medians of two
// sets of them and refuses sets measured under different protocols.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
)

func main() {
	root := flag.String("root", ".", "checkout root holding the program's sources")
	workload := flag.String("workload", "", "workload: reproduce-quick or lud-adaptive")
	seed := flag.Uint64("seed", 0, "workload seed")
	seconds := flag.Int("seconds", 55, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	child := flag.Bool("child", false, "internal: run one repetition and report it")
	probe := flag.Bool("probe", false, "internal: run the layer probes and report them")
	traced := flag.Bool("traced", false, "internal: record spans in this repetition")
	verify := flag.Bool("verify", false, "internal: also run the slower output checks")
	setupOnly := flag.Bool("setup-only", false, "internal: stop a campaign repetition after its set-up")
	runID := flag.String("run-id", "", "internal: span run id")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		if args[0] != "compare" || len(args) != 3 {
			usage()
		}
		if err := runCompare(os.Stdout, args[1], args[2]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: compare: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		usage()
	}
	o := repOpts{Root: *root, Workload: *workload, Seed: *seed, Traced: *traced, Verify: *verify,
		SetupOnly: *setupOnly, RunID: *runID}
	switch {
	case *child:
		if err := runChild(o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	case *probe:
		if err := runProbes(o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	default:
		os.Exit(runDriver(driverOpts{Root: *root, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: perfbench --workload reproduce-quick|lud-adaptive --seed N --seconds S --trace 0|1")
	fmt.Fprintln(os.Stderr, "       perfbench compare BASE HEAD   (result record files or directories)")
	os.Exit(2)
}
