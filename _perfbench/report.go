package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// printReport writes the human-readable part of a run's output: the
// protocol, every repetition, each metric with its sample count and
// spread, and for traced runs the layer mapping and span self times.
func printReport(w io.Writer, o driverOpts, rec record) {
	if b, err := json.Marshal(rec.Protocol); err == nil {
		fmt.Fprintf(w, "protocol %s\n", b)
	}
	fmt.Fprintf(w, "%-4s %-7s %-20s %9s %9s %9s %9s %9s %10s  %s\n",
		"rep", "mode", "seed", "wall_s", "setup_s", "cpu_s", "calib_s", "rss_mb", "samples", "status")
	for i, r := range rec.Reps {
		mode := "plain"
		switch {
		case r.Warmup:
			mode = "warmup"
		case r.Traced:
			mode = "traced"
		case r.SetupOnly:
			mode = "setup"
		}
		status := "ok"
		switch {
		case r.Crash != "":
			status = "CRASH " + r.Crash
		case len(r.Failures) > 0:
			status = "FAIL " + strings.Join(r.Failures, "; ")
		}
		fmt.Fprintf(w, "%-4d %-7s %-20d %9.4f %9.4f %9.4f %9.4f %9.1f %10d  %s\n",
			i, mode, r.Seed, r.WallS, r.SetupS, r.CPUS, r.CalibS, float64(r.MaxRSSKB)/1024, r.Attempted, status)
	}
	if rec.Probes != nil && len(rec.Probes.Failures) > 0 {
		fmt.Fprintf(w, "probes FAIL %s\n", strings.Join(rec.Probes.Failures, "; "))
	}

	if !o.Trace {
		fmt.Fprintf(w, "%-16s %14s %-6s %4s %8s\n", "metric", "median", "unit", "n", "spread")
		plain := plainReps(rec.Reps)
		e2e := endToEndValues(plain)
		for _, d := range endToEnd {
			n := len(e2e[d.Name])
			if d.Name == "completed_frac" {
				n = len(rec.Reps) // every repetition, warm-up included
			}
			fmt.Fprintf(w, "%-16s %14.6g %-6s %4d %8.4f\n",
				d.Name, rec.Result.Metrics[d.Name].Value, d.Unit, n, rec.Spread[d.Name])
		}
		return
	}

	fmt.Fprintf(w, "%-28s %14s %-6s  %s\n", "layer metric", "value", "unit", "should move")
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-28s %14.6g %-6s  %s\n", d.Name, rec.Result.Metrics[d.Name].Value, d.Unit, strings.Join(d.Moves, ", "))
	}
	if o.Workload == wlReproduce {
		m := rec.Result.Metrics
		var core float64
		for _, id := range experimentIDs {
			core += m["core."+id+"_s"].Value
		}
		fmt.Fprintf(w, "median traced repetition: wall %.4f s = setup %.4f + experiments %.4f + unattributed %.4f\n",
			m["trace.wall_s"].Value, m["trace.setup_s"].Value, core, m["core.unattributed_s"].Value)
	}
	fmt.Fprintf(w, "tracing overhead %.4f s (median over rounds of traced minus untraced wall)\n", rec.Result.Metrics["trace.overhead_s"].Value)
	printSpans(w, rec)
}

// plainReps returns the timed untraced repetitions that passed their
// checks.
func plainReps(reps []measuredRep) []measuredRep {
	var out []measuredRep
	for _, r := range reps {
		if !r.Warmup && !r.Traced && !r.failed() {
			out = append(out, r)
		}
	}
	return out
}

// printSpans prints the span totals of the first traced repetition and
// of the probes.
func printSpans(w io.Writer, rec record) {
	var sets [][]spanTotal
	for _, r := range rec.Reps {
		if r.Traced && len(r.Spans) > 0 {
			sets = append(sets, r.Spans)
			break
		}
	}
	if rec.Probes != nil {
		sets = append(sets, rec.Probes.Spans)
	}
	fmt.Fprintf(w, "%-36s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, set := range sets {
		for _, s := range set {
			fmt.Fprintf(w, "%-36s %6d %12.6f %12.6f\n", s.Name, s.Count, s.TotalS, s.SelfS)
		}
	}
}
