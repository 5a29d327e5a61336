package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"mixedrel"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/inject"
	"mixedrel/internal/telemetry"
)

// repOpts configures one repetition, run in a fresh child process so
// every repetition pays the cold start a user pays.
type repOpts struct {
	Root     string
	Workload string
	Seed     uint64 // the repetition's workload seed (see repSeed)
	Traced   bool
	Verify   bool // also run the slower output checks
	// SetupOnly stops a campaign repetition once its set-up is done: an
	// extra set-up sample, which costs milliseconds, not a campaign.
	SetupOnly bool
	RunID     string
}

// repResult is what a child reports back. Times are Unix nanoseconds
// so the parent can measure from the moment it started the process.
type repResult struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	SetupEndNs  int64              `json:"setup_end_ns"`
	EndNs       int64              `json:"end_ns"`
	CPUS        float64            `json:"cpu_s"`
	MaxRSSKB    int64              `json:"max_rss_kb"`
	Attempted   int64              `json:"attempted"`
	Aborted     int64              `json:"aborted"`
	SamplesToCI int64              `json:"samples_to_ci"`
	CoreSumS    float64            `json:"core_sum_s"`
	Failures    []string           `json:"failures,omitempty"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	Spans       []spanTotal        `json:"spans,omitempty"`
}

func (r *repResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// finish stamps the end of the measured work with the process's CPU time
// and peak resident memory so far; whatever the child does afterwards
// (output checks, traced extras) is not charged to the workload.
func (r *repResult) finish() {
	r.EndNs = time.Now().UnixNano()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.failf("getrusage: %v", err)
		return
	}
	r.CPUS = tv(ru.Utime) + tv(ru.Stime)
	kb, err := peakRSSKB()
	if err != nil {
		r.failf("peak resident memory: %v", err)
		return
	}
	r.MaxRSSKB = kb
}

// peakRSSKB returns the process's peak resident memory, VmHWM. The
// rusage maximum is not used: Linux carries over into it the peak of
// the address space the process replaced at exec, which for a child
// started by a Go program is the parent's.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(v, "%d kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// counterSet is a reading of the program's always-on counters.
type counterSet map[string]uint64

func readCounters() counterSet {
	out := make(counterSet)
	for _, m := range telemetry.Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}

// since returns the growth of counter name from c0 to c.
func (c counterSet) since(c0 counterSet, name string) float64 {
	return float64(c[name] - c0[name])
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runChild runs one repetition and prints its result as one JSON line.
func runChild(o repOpts) error {
	res := repResult{Workload: o.Workload, Seed: o.Seed, Traced: o.Traced}
	var tr *Tracer
	if o.Traced {
		tr = NewTracer(o.RunID, traceSamples+256)
		telemetry.SetEnabled(true) // lets the checkpoint fsync histogram record
	}
	switch o.Workload {
	case wlReproduce:
		runReproduce(o, tr, &res)
	case wlLUD:
		runCampaign(o, tr, &res)
	default:
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	if tr != nil {
		res.Spans = summarize(tr.Spans())
		if err := writeSpans(o, tr); err != nil {
			res.failf("writing spans: %v", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// writeSpans keeps the full span list of a traced run under the build
// directory, for inspection after the run.
func writeSpans(o repOpts, tr *Tracer) error {
	dir := filepath.Join(o.Root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(dir, o.RunID+".json"))
}

// setupIDs are the execution-time tables. They draw no samples: their
// cold cost is building the MNIST and YOLO fixtures and the artifacts
// (golden run, op profile, compiled trace) of every kernel they map,
// which the harness memoizes for the experiments after them. Running
// them first charges that set-up to the setup span instead of to
// whichever experiment happens to touch a fixture first; at their
// paper-order position they run again, warm.
var setupIDs = []string{"table1", "table2", "table3"}

// runReproduce is `reproduce -quick -seed <seed>` with default workers:
// every experiment in paper order, rendered as reproduce renders it.
func runReproduce(o repOpts, tr *Tracer, res *repResult) {
	workers := runtime.GOMAXPROCS(0)
	exec.SetMaxWorkers(workers)
	cfg := mixedrel.ReproConfig{Seed: o.Seed, Trials: 2000, Faults: 2000, Quick: true,
		Workers: workers, SampleWorkers: 1}
	var ids []string
	for _, d := range mixedrel.Experiments() {
		ids = append(ids, d.ID)
	}
	if strings.Join(ids, ",") != strings.Join(experimentIDs, ",") {
		res.failf("experiment list changed: %v", ids)
		return
	}

	c0 := readCounters()
	root := tr.Begin("run", 0)
	setup := tr.Begin("setup", root)
	for _, id := range setupIDs {
		s := tr.Begin("setup/Reproduce("+id+")", setup)
		_, err := mixedrel.Reproduce(id, cfg)
		tr.End(s)
		if err != nil {
			res.failf("%s: %v", id, err)
			return
		}
	}
	tr.End(setup)
	res.SetupEndNs = time.Now().UnixNano()

	var out bytes.Buffer
	coreS := make(map[string]int64, len(ids))
	for _, id := range ids {
		s := tr.Begin("Reproduce("+id+")", root)
		t0 := time.Now()
		t, err := mixedrel.Reproduce(id, cfg)
		coreS[id] = time.Since(t0).Nanoseconds()
		tr.End(s)
		if err != nil {
			res.failf("%s: %v", id, err)
			return
		}
		if err := t.WriteASCII(&out); err != nil {
			res.failf("rendering %s: %v", id, err)
			return
		}
	}
	tr.End(root)
	res.finish()
	c1 := readCounters()

	res.Attempted = int64(c1.since(c0, "inject_samples"))
	res.Aborted = int64(c1.since(c0, "inject_aborts"))
	res.SamplesToCI = res.Attempted
	for _, id := range ids {
		res.CoreSumS += float64(coreS[id]) / 1e9
	}
	checkReproduce(o, out.Bytes(), res)
	checkOutcomePartition(c0, c1, res)

	if tr == nil {
		return
	}
	res.Layer = runtimeLayers(c0, c1)
	for _, id := range ids {
		res.Layer["core."+id+"_s"] = float64(coreS[id]) / 1e9
	}
	// A second in-process pass: everything memoized is warm now.
	var warm bytes.Buffer
	pass := tr.Begin("warm pass", 0)
	for _, id := range ids {
		s := tr.Begin("Reproduce("+id+") warm", pass)
		t, err := mixedrel.Reproduce(id, cfg)
		tr.End(s)
		if err != nil {
			res.failf("warm %s: %v", id, err)
			return
		}
		if err := t.WriteASCII(&warm); err != nil {
			res.failf("rendering warm %s: %v", id, err)
			return
		}
	}
	tr.End(pass)
	res.Layer["core.warm_total_s"] = float64(tr.Spans()[pass-1].Dur()) / 1e9
	if !bytes.Equal(warm.Bytes(), out.Bytes()) {
		res.failf("warm pass rendered different tables than the cold pass")
	}
}

// checkReproduce compares the rendered tables with the digest recorded
// for the seed. On a mismatch the tables are kept for diffing.
func checkReproduce(o repOpts, tables []byte, res *repResult) {
	refs, err := reproduceRefs()
	if err != nil {
		res.failf("%v", err)
		return
	}
	if msg := compareDigest(tables, refs, o.Seed); msg != "" {
		res.failf("%s", msg)
		dir := filepath.Join(o.Root, ".bench_build", "out")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("reproduce-quick-%d.txt", o.Seed))
			if err := os.WriteFile(path, tables, 0o644); err == nil {
				res.failf("tables kept in %s; compare with `go run ./cmd/reproduce -quick -seed %d`", path, o.Seed)
			}
		}
	}
}

// compareDigest returns "" when the SHA-256 of tables is the one
// recorded for seed, else a description of the mismatch.
func compareDigest(tables []byte, refs map[uint64]string, seed uint64) string {
	want, ok := refs[seed]
	if !ok {
		return fmt.Sprintf("no reference digest recorded for reproduce seed %d", seed)
	}
	sum := sha256.Sum256(tables)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Sprintf("reproduce -quick -seed %d tables differ from the reference: sha256 %s, want %s", seed, got, want)
	}
	return ""
}

// checkOutcomePartition checks that the outcome counters partition the
// samples the workload attempted.
func checkOutcomePartition(c0, c1 counterSet, res *repResult) {
	var sum int64
	for _, n := range []string{"inject_masked", "inject_sdc", "inject_crash_due", "inject_hang_due", "inject_aborts"} {
		sum += int64(c1.since(c0, n))
	}
	if sum != res.Attempted {
		res.failf("outcome counts sum to %d, %d samples attempted", sum, res.Attempted)
	}
	if res.Attempted == 0 {
		res.failf("no samples attempted")
	}
}

// runCampaign runs lud-adaptive: the fault-free artifacts as set-up,
// then the user-level campaign.
func runCampaign(o repOpts, tr *Tracer, res *repResult) {
	exec.SetMaxWorkers(campaignWorkers)
	tmp := filepath.Join(o.Root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		res.failf("%v", err)
		return
	}
	dir, err := os.MkdirTemp(tmp, o.Workload+"-")
	if err != nil {
		res.failf("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	k := campaignKernel(o.Seed)
	c := campaignFor(o.Seed, k, dir)

	c0 := readCounters()
	root := tr.Begin("run", 0)
	setup := tr.Begin("setup", root)
	s := tr.Begin("exec.Artifact", setup)
	exec.Artifact(k, c.Format, "", nil)
	tr.End(s)
	tr.End(setup)
	res.SetupEndNs = time.Now().UnixNano()
	if o.SetupOnly {
		return
	}
	s = tr.Begin("InjectionCampaign.Run", root)
	r, err := c.Run()
	tr.End(s)
	tr.End(root)
	res.finish()
	c1 := readCounters()
	if err != nil {
		res.failf("campaign: %v", err)
		return
	}

	res.Attempted = int64(c1.since(c0, "inject_samples"))
	res.Aborted = int64(len(r.Aborted))
	res.SamplesToCI = int64(r.Faults)
	checkCampaign(r, res)
	checkOutcomePartition(c0, c1, res)
	if o.Verify {
		checkReplayEquivalence(o, k, c.Format, res)
		checkJournalResume(c, r, res)
	}

	if tr == nil {
		return
	}
	res.Layer = runtimeLayers(c0, c1)
	timeSamples(o, tr, k, c.Format, res)
}

// checkCampaign checks a campaign result's own accounting.
func checkCampaign(r *mixedrel.InjectionResult, res *repResult) {
	if sum := r.Masked + r.SDCs + r.CrashDUEs + r.HangDUEs + len(r.Aborted); sum != r.Faults {
		res.failf("campaign outcomes sum to %d, %d faults attempted", sum, r.Faults)
	}
	if int64(r.Faults) != res.Attempted {
		res.failf("campaign reports %d faults, the injector ran %d samples", r.Faults, res.Attempted)
	}
	const slack = 1e-12
	if !r.EarlyStopped {
		res.failf("adaptive campaign spent its whole budget without reaching the CI target")
	}
	if hw := (r.PVFCIHigh - r.PVFCILow) / 2; hw > ludCIHalfWidth+slack {
		res.failf("P(SDC) CI half-width %g above target %g", hw, ludCIHalfWidth)
	}
	if hw := (r.PDUECIHigh - r.PDUECILow) / 2; hw > ludCIHalfWidth+slack {
		res.failf("P(DUE) CI half-width %g above target %g", hw, ludCIHalfWidth)
	}
}

// checkReplayEquivalence re-runs a fixed subset of the workload's
// faults with and without the compiled trace program; the two must
// classify every fault identically, down to the output bits.
func checkReplayEquivalence(o repOpts, k mixedrel.Kernel, f fp.Format, res *repResult) {
	compiled := inject.NewRunner(k, f, "", nil)
	interp := inject.NewRunner(k, f, "", nil)
	interp.DisableCompiledReplay = true
	specs := faultSpecs(splitmix64(o.Seed^saltCheck), checkSubset, compiled.Counts(), compiled.ArrayLens(), f)
	for i, spec := range specs {
		a, abortA := compiled.RunSpec(spec, true)
		b, abortB := interp.RunSpec(spec, true)
		if msg := sameRun(a, abortA, b, abortB); msg != "" {
			res.failf("fault %d (%s): compiled replay and interpreted execution differ: %s", i, spec.Desc(), msg)
			return
		}
	}
}

// sameRun returns "" when two runs of one fault agree exactly.
func sameRun(a inject.RunResult, abortA *exec.Abort, b inject.RunResult, abortB *exec.Abort) string {
	switch {
	case (abortA == nil) != (abortB == nil):
		return fmt.Sprintf("aborted %v vs %v", abortA != nil, abortB != nil)
	case a.Outcome != b.Outcome || a.Cause != b.Cause:
		return fmt.Sprintf("outcome %v/%v vs %v/%v", a.Outcome, a.Cause, b.Outcome, b.Cause)
	case math.Float64bits(a.MaxRelErr) != math.Float64bits(b.MaxRelErr):
		return fmt.Sprintf("max relative error %g vs %g", a.MaxRelErr, b.MaxRelErr)
	case a.FaultApplied != b.FaultApplied:
		return fmt.Sprintf("fault applied %v vs %v", a.FaultApplied, b.FaultApplied)
	case len(a.Output) != len(b.Output):
		return fmt.Sprintf("output length %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if math.Float64bits(a.Output[i]) != math.Float64bits(b.Output[i]) {
			return fmt.Sprintf("output[%d] %g vs %g", i, a.Output[i], b.Output[i])
		}
	}
	return ""
}

// checkJournalResume re-runs the finished checkpointed campaign: it must
// classify nothing new and return the identical result from its journal.
func checkJournalResume(c mixedrel.InjectionCampaign, first *mixedrel.InjectionResult, res *repResult) {
	c0 := readCounters()
	again, err := c.Run()
	if err != nil {
		res.failf("resuming from the journal: %v", err)
		return
	}
	if n := readCounters().since(c0, "inject_samples"); n != 0 {
		res.failf("resuming a finished campaign ran %g new samples", n)
	}
	a, errA := resultJSON(first)
	b, errB := resultJSON(again)
	if errA != nil || errB != nil {
		res.failf("encoding campaign results: %v %v", errA, errB)
		return
	}
	if !bytes.Equal(a, b) {
		res.failf("result resumed from the journal differs from the campaign's")
	}
}

// resultJSON encodes a result without its checkpoint status, which is
// infrastructure state rather than campaign statistics.
func resultJSON(r *mixedrel.InjectionResult) ([]byte, error) {
	cp := *r
	cp.CheckpointDegraded, cp.CheckpointError = false, ""
	return json.Marshal(&cp)
}

// timeSamples times the workload's faults one by one through
// Runner.RunSpec, the injector's per-sample entry point.
func timeSamples(o repOpts, tr *Tracer, k mixedrel.Kernel, f fp.Format, res *repResult) {
	runner := inject.NewRunner(k, f, "", nil)
	specs := faultSpecs(splitmix64(o.Seed^saltTrace), traceSamples, runner.Counts(), runner.ArrayLens(), f)
	runner.RunSpec(specs[0], false) // fill the scratch pool outside the measurement
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass := tr.Begin("RunSpec pass", 0)
	first := pass + 1
	for _, spec := range specs {
		s := tr.Begin("Runner.RunSpec", pass)
		runner.RunSpec(spec, false)
		tr.End(s)
	}
	tr.End(pass)
	runtime.ReadMemStats(&m1)

	us := make([]float64, 0, len(specs))
	for _, s := range tr.Spans()[first-1:] {
		us = append(us, float64(s.Dur())/1e3)
	}
	// A percentile without ten samples beyond it is not reported.
	if v, _, ok := percentile(us, 50); ok {
		res.Layer["inject.sample_us.p50"] = v
	}
	if v, _, ok := percentile(us, 99); ok {
		res.Layer["inject.sample_us.p99"] = v
	}
	res.Layer["inject.sample_count"] = float64(len(us))
	res.Layer["inject.alloc_b_per_sample"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(us))
}

// runtimeLayers derives the counter-based and Go-runtime per-layer
// metrics of the measured work from counter readings around it.
func runtimeLayers(c0, c1 counterSet) map[string]float64 {
	samples := c1.since(c0, "inject_samples")
	classified := samples - c1.since(c0, "inject_aborts")
	ops := c1.since(c0, "inject_ops")
	lookups := c1.since(c0, "exec_artifact_lookups")
	computes := c1.since(c0, "exec_artifact_computes")
	l := map[string]float64{
		"exec.artifact_lookups":   lookups,
		"exec.artifact_computes":  computes,
		"exec.artifact_hit_frac":  ratio(lookups-computes, lookups),
		"inject.ops_per_sample":   ratio(ops, samples),
		"inject.served_frac":      ratio(c1.since(c0, "inject_replay_served")+c1.since(c0, "inject_compare_served"), ops),
		"inject.sdc_frac":         ratio(c1.since(c0, "inject_sdc"), classified),
		"inject.crash_frac":       ratio(c1.since(c0, "inject_crash_due"), classified),
		"inject.hang_frac":        ratio(c1.since(c0, "inject_hang_due"), classified),
		"inject.watchdog_fires":   c1.since(c0, "inject_watchdog_fires"),
		"inject.backoff_trips":    c1.since(c0, "inject_backoff_trips"),
		"exec.helpers_peak":       float64(c1["exec_helpers_peak"]),
		"exec.checkpoint_records": c1.since(c0, "checkpoint_records"),
		"exec.checkpoint_fsyncs":  c1.since(c0, "checkpoint_fsyncs"),
		"exec.fsync_s":            fsyncSeconds(),
	}
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 && gc[1].Value.Kind() == metrics.KindFloat64 {
		l["go.gc_cpu_frac"] = ratio(gc[0].Value.Float64(), gc[1].Value.Float64())
	}
	// HeapSys never shrinks (memory returned to the OS stays counted in
	// it), so at the end of the work it is the heap's peak footprint.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l["go.heap_peak_mb"] = float64(ms.HeapSys) / (1 << 20)
	return l
}

// fsyncSeconds reads the total of the checkpoint fsync histogram, which
// the telemetry layer exposes only through its event snapshot.
func fsyncSeconds() float64 {
	var buf bytes.Buffer
	telemetry.SetSink(&buf)
	telemetry.EmitSnapshot()
	telemetry.SetSink(nil)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
			Name  string `json:"name"`
			SumNs uint64 `json:"sum_ns"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == "histogram" && ev.Name == "checkpoint_fsync_ns" {
			return float64(ev.SumNs) / 1e9
		}
	}
	return 0
}
