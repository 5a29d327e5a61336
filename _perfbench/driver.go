package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// driverOpts are the benchmark's command-line parameters.
type driverOpts struct {
	Root     string
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
}

// Bounds on one run's repetitions.
const (
	minReps = 3 // timed rounds per run, at least
	// setupSamples is how many extra set-up-only children a campaign
	// run starts after each timed repetition. A campaign's set-up takes
	// milliseconds, most of it process start, and one sample per
	// repetition leaves its median at the mercy of a few slow starts.
	setupSamples = 4
	childTimeout = 170 * time.Second // one child may take this long before it is killed
)

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what a run keeps under .bench_build/results for compare.
type record struct {
	Protocol Protocol           `json:"protocol"`
	Result   result             `json:"result"`
	Layers   []metricDef        `json:"layers,omitempty"`
	Reps     []measuredRep      `json:"reps"`
	Probes   *repResult         `json:"probes,omitempty"`
	Spread   map[string]float64 `json:"spread,omitempty"`
}

// measuredRep is a child's report plus the parent's clock readings.
type measuredRep struct {
	repResult
	Rep    int  `json:"rep"`
	Warmup bool `json:"warmup,omitempty"`
	// CalibS is the host calibration around the repetition's round: the
	// mean of the calibrations timed just before and just after it.
	CalibS float64 `json:"calib_s,omitempty"`
	// SetupOnly marks an extra set-up sample (see setupSamples).
	SetupOnly bool    `json:"setup_only,omitempty"`
	WallS     float64 `json:"wall_s"`
	SetupS    float64 `json:"setup_s"`
	Crash     string  `json:"crash,omitempty"`
}

// failed reports whether the repetition's output checks failed or the
// child died.
func (m measuredRep) failed() bool { return m.Crash != "" || len(m.Failures) > 0 }

// runDriver runs the workload in fresh child processes for the given
// number of seconds, checks their outputs and prints the metrics. It
// returns the process exit code.
func runDriver(o driverOpts) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	proto := newProtocol(o.Root, o.Workload, o.Seed, o.Seconds, o.Trace)

	// A campaign run begins with repetition 0, which warms the host up
	// (the freshly built binary, CPU clocks after the idle build step)
	// and runs the slower output checks. It is checked like every
	// repetition but not timed. A reproduce-quick repetition takes
	// about an eighth of the budget and has no slower checks, so that
	// run has no warm-up: the median of six or more repetitions already
	// sets one slow first start aside.
	start := time.Now()
	budget := time.Duration(o.Seconds) * time.Second
	var reps []measuredRep
	if o.Workload != wlReproduce {
		reps = append(reps, spawnRep(self, o, 0, false))
	}
	calBefore := calibrate()
	for i := 1; ; i++ {
		t0 := time.Now()
		first := len(reps)
		reps = append(reps, spawnRep(self, o, i, false))
		if !o.Trace && o.Workload != wlReproduce {
			for j := 0; j < setupSamples; j++ {
				reps = append(reps, spawnSetup(self, o, i))
			}
		}
		if o.Trace {
			reps = append(reps, spawnRep(self, o, i, true))
		}
		calAfter := calibrate()
		for j := first; j < len(reps); j++ {
			reps[j].CalibS = (calBefore + calAfter) / 2
		}
		calBefore = calAfter
		// Stop once another round would overrun the budget. A traced
		// run also makes at least minReps rounds, so its overhead is a
		// median over pairs rather than one difference of two walls.
		if i >= minReps && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	var probes *repResult
	if o.Trace {
		p := spawnProbes(self, o)
		probes = &p
	}
	proto.Reps = len(reps)

	res, rec := aggregate(o, reps, probes)
	rec.Protocol = proto
	printReport(os.Stdout, o, rec)
	if err := saveRecord(o, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving the result record: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// childArgs builds a child's command line.
func childArgs(o driverOpts, mode string, seed uint64, runID string, extra ...string) []string {
	args := []string{"-root", o.Root, mode, "-workload", o.Workload,
		"-seed", strconv.FormatUint(seed, 10), "-run-id", runID}
	return append(args, extra...)
}

// spawnRep runs repetition i in a fresh process; repetition 0 is the
// warm-up. The wall and set-up times run from the moment the parent
// starts the process, so they include process start-up as a user's
// invocation does.
func spawnRep(self string, o driverOpts, i int, traced bool) measuredRep {
	seed := repSeed(o.Workload, o.Seed, i)
	runID := fmt.Sprintf("%s-s%d-r%d", o.Workload, o.Seed, i)
	var extra []string
	if traced {
		runID += "-traced"
		extra = append(extra, "-traced")
	}
	if i == 0 {
		extra = append(extra, "-verify")
	}
	startNs := time.Now().UnixNano()
	m := measuredRep{Rep: i, Warmup: i == 0}
	out, err := runProcess(self, childArgs(o, "-child", seed, runID, extra...))
	if err == nil {
		err = json.Unmarshal(lastLine(out), &m.repResult)
	}
	m.Workload, m.Seed, m.Traced = o.Workload, seed, traced
	if err != nil {
		m.Crash = err.Error()
		return m
	}
	m.WallS = float64(m.EndNs-startNs) / 1e9
	m.SetupS = float64(m.SetupEndNs-startNs) / 1e9
	return m
}

// spawnSetup runs repetition i's set-up alone in a fresh process and
// times it as spawnRep does.
func spawnSetup(self string, o driverOpts, i int) measuredRep {
	seed := repSeed(o.Workload, o.Seed, i)
	startNs := time.Now().UnixNano()
	m := measuredRep{Rep: i, SetupOnly: true}
	out, err := runProcess(self, childArgs(o, "-child", seed, fmt.Sprintf("%s-s%d-r%d-setup", o.Workload, o.Seed, i), "-setup-only"))
	if err == nil {
		err = json.Unmarshal(lastLine(out), &m.repResult)
	}
	m.Workload, m.Seed = o.Workload, seed
	if err != nil {
		m.Crash = err.Error()
		return m
	}
	m.SetupS = float64(m.SetupEndNs-startNs) / 1e9
	return m
}

// spawnProbes runs the layer probes in a fresh process.
func spawnProbes(self string, o driverOpts) repResult {
	var r repResult
	out, err := runProcess(self, childArgs(o, "-probe", repSeed(o.Workload, o.Seed, 0), fmt.Sprintf("%s-s%d-probes", o.Workload, o.Seed)))
	if err == nil {
		err = json.Unmarshal(lastLine(out), &r)
	}
	if err != nil {
		r.failf("probe process: %v", err)
	}
	return r
}

// runProcess runs the benchmark binary with args, waits for it to exit
// and returns its standard output.
func runProcess(self string, args []string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := osexec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	return out.Bytes(), nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// aggregate turns the repetitions into the result line and the record.
func aggregate(o driverOpts, reps []measuredRep, probes *repResult) (result, record) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	rec := record{Reps: reps, Probes: probes, Spread: map[string]float64{}}
	var untraced, traced []measuredRep
	for _, r := range reps {
		attempted := r.Attempted
		if r.Crash != "" || (r.SetupOnly && r.failed()) {
			attempted = 1 // the run itself was the attempt
		}
		res.Attempted += attempted
		if r.failed() {
			res.Correct = false
			res.Failed += attempted
			continue
		}
		res.Failed += r.Aborted
		switch {
		case r.Warmup:
		case r.Traced:
			traced = append(traced, r)
		default:
			untraced = append(untraced, r)
		}
	}
	if probes != nil && len(probes.Failures) > 0 {
		res.Correct = false
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	if res.Failed > 0 && res.Correct {
		res.Correct = false // an aborted sample is a simulator failure
	}
	e2e := endToEndValues(untraced)
	for name, vs := range e2e {
		rec.Spread[name] = spread(vs)
	}
	if !o.Trace {
		for _, d := range endToEnd {
			v := median(e2e[d.Name])
			if d.Name == "completed_frac" {
				v = float64(res.Attempted-res.Failed) / float64(res.Attempted)
			}
			res.Metrics[d.Name] = metricValue{Value: finite(v), Unit: d.Unit}
		}
	} else {
		rec.Layers = perLayer
		layer := layerValues(o, untraced, traced, probes)
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: finite(layer[d.Name]), Unit: d.Unit}
		}
	}
	rec.Result = res
	return res, rec
}

// finite maps the NaN of an empty median (every repetition failed) to 0,
// which JSON can carry; the result is then marked incorrect anyway.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// endToEndValues returns each end-to-end metric's per-repetition values,
// times scaled to the reference host speed (see calib.go).
func endToEndValues(reps []measuredRep) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reps {
		scale := calibRefS / r.CalibS
		if r.SetupOnly {
			out["setup_s"] = append(out["setup_s"], r.SetupS*scale)
			continue
		}
		out["wall_s"] = append(out["wall_s"], r.WallS*scale)
		out["setup_s"] = append(out["setup_s"], r.SetupS*scale)
		out["cpu_s"] = append(out["cpu_s"], r.CPUS*scale)
		out["peak_rss_mb"] = append(out["peak_rss_mb"], float64(r.MaxRSSKB)/1024)
		out["samples_per_s"] = append(out["samples_per_s"], float64(r.Attempted-r.Aborted)/((r.WallS-r.SetupS)*scale))
		out["samples_to_ci"] = append(out["samples_to_ci"], float64(r.SamplesToCI))
	}
	return out
}

// layerValues assembles the per-layer metrics of a traced run: medians
// over the traced repetitions, the probes, and the arithmetic that ties
// them to the untraced repetitions.
func layerValues(o driverOpts, untraced, traced []measuredRep, probes *repResult) map[string]float64 {
	out := map[string]float64{}
	perRep := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.Layer {
			perRep[k] = append(perRep[k], v)
		}
	}
	for k, vs := range perRep {
		out[k] = median(vs)
	}
	if probes != nil {
		for k, v := range probes.Layer {
			out[k] = v
		}
	}
	if m, ok := medianRep(traced); ok {
		// Medians do not add up, so the parts of the traced wall time
		// all come from one repetition: the one with the median wall.
		out["trace.wall_s"] = m.WallS
		out["trace.setup_s"] = m.SetupS
		if o.Workload == wlReproduce {
			for _, id := range experimentIDs {
				out["core."+id+"_s"] = m.Layer["core."+id+"_s"]
			}
			out["core.unattributed_s"] = unattributedS(m.WallS, m.SetupS, m.CoreSumS)
		}
	}
	var utilization []float64
	for _, r := range untraced {
		if r.SetupOnly {
			continue
		}
		utilization = append(utilization, cpuUtil(r.CPUS, r.WallS, runtime.NumCPU()))
	}
	if len(untraced) > 0 {
		out["exec.cpu_util"] = median(utilization)
	}
	if len(traced) > 0 && len(untraced) > 0 {
		out["trace.overhead_s"] = overheadS(untraced, traced)
	}
	return out
}

// medianRep returns the repetition with the median wall time, the lower
// of the two middle ones for an even count.
func medianRep(reps []measuredRep) (measuredRep, bool) {
	if len(reps) == 0 {
		return measuredRep{}, false
	}
	s := append([]measuredRep(nil), reps...)
	sort.Slice(s, func(i, j int) bool { return s[i].WallS < s[j].WallS })
	return s[(len(s)-1)/2], true
}

// overheadS is the tracing overhead: the median, over the rounds that
// have both, of the traced minus the untraced wall time of one round.
// The two repetitions of a round share their seed.
func overheadS(untraced, traced []measuredRep) float64 {
	plain := map[int]float64{}
	for _, r := range untraced {
		if !r.SetupOnly {
			plain[r.Rep] = r.WallS
		}
	}
	var diffs []float64
	for _, r := range traced {
		if w, ok := plain[r.Rep]; ok {
			diffs = append(diffs, r.WallS-w)
		}
	}
	return median(diffs)
}

// unattributedS is the part of a reproduce run's wall time spent
// neither in set-up (which starts with the process) nor inside any
// experiment: rendering the tables and the steps between experiments.
func unattributedS(wall, setup, coreSum float64) float64 { return wall - setup - coreSum }

// cpuUtil is the share of the host's cores a run kept busy.
func cpuUtil(cpu, wall float64, nproc int) float64 {
	if wall <= 0 || nproc <= 0 {
		return 0
	}
	return cpu / (wall * float64(nproc))
}

// saveRecord writes the run's record for later comparison.
func saveRecord(o driverOpts, rec record) error {
	dir := filepath.Join(o.Root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d.json", o.Workload, boolInt(o.Trace), o.Seed)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
