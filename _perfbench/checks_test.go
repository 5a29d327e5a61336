package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"mixedrel"
	"mixedrel/internal/exec"
	"mixedrel/internal/inject"
)

func TestCorruptedTablesFailTheDigestCheck(t *testing.T) {
	tables := []byte("== fig3 ==\nMxM  single  0.123\n")
	sum := sha256.Sum256(tables)
	refs := map[uint64]string{2019: hex.EncodeToString(sum[:])}
	if msg := compareDigest(tables, refs, 2019); msg != "" {
		t.Fatalf("reference tables rejected: %s", msg)
	}
	corrupt := append([]byte(nil), tables...)
	corrupt[len(corrupt)-2] = '4'
	if msg := compareDigest(corrupt, refs, 2019); !strings.Contains(msg, "differ") {
		t.Errorf("corrupted tables accepted: %q", msg)
	}
	if msg := compareDigest(tables, refs, 7); !strings.Contains(msg, "no reference") {
		t.Errorf("seed without a reference accepted: %q", msg)
	}
}

func TestEveryReproduceSeedHasAReference(t *testing.T) {
	refs, err := reproduceRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range reproduceSeeds {
		if len(refs[s]) != 64 {
			t.Errorf("seed %d: reference digest %q", s, refs[s])
		}
	}
	for rep := 0; rep < 3; rep++ {
		if s := repSeed(wlReproduce, 1<<63+5, rep); refs[s] == "" {
			t.Errorf("rep %d uses seed %d without a reference", rep, s)
		}
	}
}

func TestSameRunDetectsAnyDifference(t *testing.T) {
	a := inject.RunResult{Outcome: inject.SDC, MaxRelErr: 0.5, Output: []float64{1, 2}, FaultApplied: true}
	if msg := sameRun(a, nil, a, nil); msg != "" {
		t.Fatalf("identical runs differ: %s", msg)
	}
	nan := a
	nan.Output = []float64{1, math.NaN()}
	if msg := sameRun(nan, nil, nan, nil); msg != "" {
		t.Errorf("identical NaN outputs differ: %s", msg)
	}
	for name, mutate := range map[string]func(*inject.RunResult){
		"outcome": func(r *inject.RunResult) { r.Outcome = inject.Masked },
		"relerr":  func(r *inject.RunResult) { r.MaxRelErr = math.Nextafter(0.5, 1) },
		"output":  func(r *inject.RunResult) { r.Output = []float64{1, math.Nextafter(2, 3)} },
		"length":  func(r *inject.RunResult) { r.Output = r.Output[:1] },
		"applied": func(r *inject.RunResult) { r.FaultApplied = false },
	} {
		b := a
		b.Output = append([]float64(nil), a.Output...)
		mutate(&b)
		if msg := sameRun(a, nil, b, nil); msg == "" {
			t.Errorf("%s difference not detected", name)
		}
	}
	if msg := sameRun(a, &exec.Abort{Value: "boom"}, a, nil); msg == "" {
		t.Error("abort on one side not detected")
	}
}

func TestCorruptedCampaignCountsFail(t *testing.T) {
	good := &mixedrel.InjectionResult{Faults: 20000, SDCs: 12000, Masked: 4000, CrashDUEs: 3000, HangDUEs: 1000,
		EarlyStopped: true, PVFCILow: 0.70, PVFCIHigh: 0.7039, PDUECILow: 0.2, PDUECIHigh: 0.2039}
	res := &repResult{Attempted: 20000}
	checkCampaign(good, res)
	if len(res.Failures) != 0 {
		t.Fatalf("consistent campaign rejected: %v", res.Failures)
	}
	bad := *good
	bad.Masked--
	res = &repResult{Attempted: 20000}
	checkCampaign(&bad, res)
	if len(res.Failures) == 0 {
		t.Error("outcomes not summing to the faults accepted")
	}
	res = &repResult{Attempted: 19999}
	checkCampaign(good, res)
	if len(res.Failures) == 0 {
		t.Error("injector sample count disagreeing with the campaign accepted")
	}
	wide := *good
	wide.PDUECIHigh = 0.2041
	res = &repResult{Attempted: 20000}
	checkCampaign(&wide, res)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "P(DUE)") {
		t.Errorf("P(DUE) half-width above target: failures %v", res.Failures)
	}
	spent := *good
	spent.EarlyStopped = false
	res = &repResult{Attempted: 20000}
	checkCampaign(&spent, res)
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "whole budget") {
		t.Errorf("campaign that missed its CI target: failures %v", res.Failures)
	}
}

func TestOutcomeCountersMustPartitionSamples(t *testing.T) {
	c0 := counterSet{}
	c1 := counterSet{"inject_masked": 3, "inject_sdc": 4, "inject_crash_due": 1, "inject_hang_due": 1, "inject_aborts": 1}
	res := &repResult{Attempted: 10}
	checkOutcomePartition(c0, c1, res)
	if len(res.Failures) != 0 {
		t.Errorf("partition rejected: %v", res.Failures)
	}
	res = &repResult{Attempted: 11}
	checkOutcomePartition(c0, c1, res)
	if len(res.Failures) == 0 {
		t.Error("a sample missing from the outcome counts accepted")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the checkout root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("workloads %d, want %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end %d, want %d", len(f.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range f.EndToEnd {
		if m.metricDef.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Better != endToEnd[i].Better {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.metricDef.Name, m.Bound)
		}
		if m.metricDef.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer %d, want %d", len(f.PerLayer), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Moves != nil {
			t.Errorf("per_layer %d: %+v, want %+v without moves", i, m, want)
		}
		if len(want.Moves) == 0 {
			t.Errorf("%s: no end-to-end metric it should move", want.Name)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s: bad or repeated name or unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}
