package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{8.5, 8.1, 9.9, 8.3}, 8.15, 9.55},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// p99 of 1..1000 is 990 with exactly ten samples above it.
	v, beyond, ok := percentile(seq(1000), 99)
	if !ok || v != 990 || beyond != 10 {
		t.Errorf("p99 of 1000 = %v, %d beyond, ok=%v", v, beyond, ok)
	}
	// One sample fewer leaves nine beyond: not reportable.
	if _, beyond, ok := percentile(seq(999), 99); ok || beyond != 9 {
		t.Errorf("p99 of 999 reported with %d beyond", beyond)
	}
	// The median of 20 has ten beyond; of 19, nine.
	if _, _, ok := percentile(seq(20), 50); !ok {
		t.Error("p50 of 20 not reported")
	}
	if _, _, ok := percentile(seq(19), 50); ok {
		t.Error("p50 of 19 reported")
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing reported")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent's end
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Name: "other root", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	// root: covered = [10,60] + [90,100] = 60.
	want := map[int]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(append(spans, Span{ID: 7, Parent: 1, Name: "a", Start: 70, End: 80}))
	if sum[1].Name != "a" || sum[1].Count != 2 || !near(sum[1].TotalS, 40e-9) {
		t.Errorf("summary of a = %+v", sum[1])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
	tr = NewTracer("run", 4)
	a := tr.Begin("a", 0)
	b := tr.Begin("b", a)
	tr.End(b)
	tr.End(a)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != a || s[0].Run != "run" || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}

func TestCPUUtilAndUnattributed(t *testing.T) {
	if got := cpuUtil(12, 8, 2); !near(got, 0.75) {
		t.Errorf("cpuUtil = %v", got)
	}
	if got := cpuUtil(1, 0, 2); got != 0 {
		t.Errorf("cpuUtil with no wall time = %v", got)
	}
	// setup + experiments + unattributed adds back up to wall.
	wall, setup, core := 9.0, 1.5, 7.25
	u := unattributedS(wall, setup, core)
	if !near(u, 0.25) || !near(setup+core+u, wall) {
		t.Errorf("unattributed = %v", u)
	}
}

func TestTracedRunIdentityAndOverhead(t *testing.T) {
	// Three rounds of an untraced and a traced repetition. Each traced
	// repetition's parts add up to its own wall time; the per-metric
	// medians of the parts would not (2+3+1, 1+5+1 and 3+2+2 have
	// medians 2+3+1 = 6, but the median wall is 7).
	traced := func(rep int, setup, exp, rest float64) measuredRep {
		return measuredRep{Rep: rep, WallS: setup + exp + rest, SetupS: setup,
			repResult: repResult{Traced: true, CoreSumS: exp, Layer: map[string]float64{"core.table1_s": exp}}}
	}
	plain := func(rep int, wall float64) measuredRep { return measuredRep{Rep: rep, WallS: wall} }
	tr := []measuredRep{traced(1, 2, 3, 1), traced(2, 1, 5, 1), traced(3, 3, 2, 2)}
	un := []measuredRep{plain(1, 5.5), plain(2, 6), plain(3, 7.5)}
	got := layerValues(driverOpts{Workload: wlReproduce}, un, tr, nil)
	var core float64
	for _, id := range experimentIDs {
		core += got["core."+id+"_s"]
	}
	if got["trace.wall_s"] != 7 || !near(got["trace.setup_s"]+core+got["core.unattributed_s"], got["trace.wall_s"]) {
		t.Errorf("wall %v != setup %v + experiments %v + unattributed %v",
			got["trace.wall_s"], got["trace.setup_s"], core, got["core.unattributed_s"])
	}
	// Overhead pairs repetitions by round: differences 0.5, 1, -0.5.
	if !near(got["trace.overhead_s"], 0.5) {
		t.Errorf("overhead = %v, want the median of per-round differences 0.5", got["trace.overhead_s"])
	}
	// A round whose untraced repetition failed contributes no pair.
	if d := overheadS(un[1:], tr); !near(d, 0.25) {
		t.Errorf("overhead without round 1 = %v, want 0.25", d)
	}
}

func TestAggregateCountsFailures(t *testing.T) {
	ok := func(wall float64) measuredRep {
		return measuredRep{repResult: repResult{Attempted: 100, SamplesToCI: 100, CPUS: wall, MaxRSSKB: 2048},
			WallS: wall, SetupS: 1, CalibS: calibRefS}
	}
	o := driverOpts{Workload: wlLUD}
	res, _ := aggregate(o, []measuredRep{ok(4), ok(5), ok(3)}, nil)
	if !res.Correct || res.Attempted != 300 || res.Failed != 0 {
		t.Fatalf("clean run: %+v", res)
	}
	if m := res.Metrics; m["wall_s"].Value != 4 || m["cpu_s"].Value != 4 || m["samples_per_s"].Value != 100.0/3 ||
		m["setup_s"].Value != 1 || m["completed_frac"].Value != 1 || m["peak_rss_mb"].Value != 2 {
		t.Errorf("metrics = %+v", m)
	}

	// Times are scaled to the reference host: a repetition whose
	// calibration took twice the reference ran on a host half as fast.
	slow := ok(8)
	slow.SetupS, slow.CalibS = 2, 2*calibRefS
	res, _ = aggregate(o, []measuredRep{slow, ok(3), ok(5)}, nil)
	if m := res.Metrics; m["wall_s"].Value != 4 || m["cpu_s"].Value != 4 || m["setup_s"].Value != 1 ||
		m["samples_per_s"].Value != 100.0/3 || m["peak_rss_mb"].Value != 2 {
		t.Errorf("scaled metrics = %+v", m)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}

	// A warm-up repetition is checked and counted but not timed.
	warm := ok(30)
	warm.Warmup = true
	res, _ = aggregate(o, []measuredRep{warm, ok(3), ok(5), ok(4)}, nil)
	if res.Attempted != 400 || res.Metrics["wall_s"].Value != 4 {
		t.Errorf("warm-up repetition timed: %+v", res)
	}

	// Set-up-only samples count toward setup_s alone; one that fails
	// makes the run incorrect.
	setupOnly := func(setup float64) measuredRep { return measuredRep{SetupOnly: true, SetupS: setup, CalibS: calibRefS} }
	res, _ = aggregate(o, []measuredRep{ok(3), setupOnly(0.5), setupOnly(0.25), ok(5), ok(4)}, nil)
	if m := res.Metrics; !res.Correct || res.Attempted != 300 || m["setup_s"].Value != 1 || m["wall_s"].Value != 4 {
		t.Errorf("set-up samples: %+v", res)
	}
	broken := setupOnly(0.5)
	broken.Failures = []string{"artifact"}
	if res, _ = aggregate(o, []measuredRep{ok(3), broken}, nil); res.Correct || res.Attempted != 101 || res.Failed != 1 {
		t.Errorf("failed set-up sample: %+v", res)
	}

	bad := ok(4)
	bad.Failures = []string{"tables differ"}
	aborted := ok(4)
	aborted.Aborted = 2
	crashed := measuredRep{Crash: "exit status 2"}
	res, _ = aggregate(o, []measuredRep{ok(3), bad, aborted, crashed}, nil)
	if res.Correct || res.Attempted != 301 || res.Failed != 100+2+1 {
		t.Errorf("failing run: %+v", res)
	}
	if got := res.Metrics["completed_frac"].Value; !near(got, 198.0/301) {
		t.Errorf("completed_frac = %v", got)
	}
}

func TestProtocolMismatchRefused(t *testing.T) {
	p := Protocol{GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "x", GOGC: "100",
		Workload: wlLUD, Sizes: sizes(wlLUD), Seconds: 30, BenchSHA: "b", SourceSHA: "s1", Commit: "c1", Seed: 1, Reps: 9}
	q := p
	q.SourceSHA, q.Commit, q.Seed, q.Reps = "s2", "c2", 2, 10
	if d := p.mismatches(q); len(d) != 0 {
		t.Errorf("code under test and seed counted as protocol: %v", d)
	}
	q.GOGC = "off"
	q.GOMAXPROCS = 4
	d := p.mismatches(q)
	if len(d) != 2 || !strings.HasPrefix(d[0], "gomaxprocs") || !strings.HasPrefix(d[1], "gogc") {
		t.Errorf("mismatches = %v", d)
	}
	recs := []record{{Protocol: p}, {Protocol: q}}
	if err := checkComparable(recs); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("differing protocols compared: %v", err)
	}
	// Different workloads are separate groups, not a mismatch.
	other := p
	other.Workload, other.Sizes = wlReproduce, sizes(wlReproduce)
	if err := checkComparable([]record{{Protocol: p}, {Protocol: other}}); err != nil {
		t.Errorf("workloads compared against each other: %v", err)
	}
}
