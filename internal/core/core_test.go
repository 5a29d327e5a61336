package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"mixedrel/internal/report"
)

// Experiments are deterministic, so each is run at most once per test
// binary and shared across assertions.
var (
	expMu    sync.Mutex
	expCache = map[string]*report.Table{}
)

func runExp(t *testing.T, id string) *report.Table {
	t.Helper()
	expMu.Lock()
	defer expMu.Unlock()
	if tbl, ok := expCache[id]; ok {
		return tbl
	}
	d, ok := Get(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	cfg := DefaultConfig()
	cfg.Quick = true
	tbl, err := d.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	expCache[id] = tbl
	return tbl
}

// cell returns the named column of the first row matching the given
// leading cells.
func cell(t *testing.T, tbl *report.Table, column string, match ...string) string {
	t.Helper()
	ci := -1
	for i, c := range tbl.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		t.Fatalf("%s: no column %q in %v", tbl.ID, column, tbl.Columns)
	}
rows:
	for _, row := range tbl.Rows {
		for i, m := range match {
			if row[i] != m {
				continue rows
			}
		}
		return row[ci]
	}
	t.Fatalf("%s: no row matching %v", tbl.ID, match)
	return ""
}

// num parses a cell that may carry "s" or "%" suffixes.
func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "s"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func val(t *testing.T, id, column string, match ...string) float64 {
	t.Helper()
	return num(t, cell(t, runExp(t, id), column, match...))
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6",
		"fig7", "fig8", "fig9", "table3", "fig10a", "fig10b", "fig10c",
		"fig11a", "fig11b", "fig11c", "fig12", "fig13",
		"ext-bf16", "ext-mbu", "ext-accum", "ext-mitigation", "ext-solver",
		"ext-due"}
	if len(Experiments) != len(want) {
		t.Fatalf("%d experiments, want %d", len(Experiments), len(want))
	}
	for i, id := range want {
		if Experiments[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, Experiments[i].ID, id)
		}
		if _, ok := Get(id); !ok {
			t.Errorf("Get(%q) failed", id)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unknown id succeeded")
	}
}

func TestTable1Shape(t *testing.T) {
	// Paper Table 1: MxM 2.730/2.100/2.310 — double slowest, half slower
	// than single; values within 15% of the paper's.
	d := val(t, "table1", "Double", "MxM")
	s := val(t, "table1", "Single", "MxM")
	h := val(t, "table1", "Half", "MxM")
	if !(d > h && h > s) {
		t.Errorf("MxM times (%v, %v, %v): want D > H > S", d, s, h)
	}
	for name, got := range map[string]struct{ got, want float64 }{
		"D": {d, 2.730}, "S": {s, 2.100}, "H": {h, 2.310},
	} {
		if rel := abs(got.got-got.want) / got.want; rel > 0.15 {
			t.Errorf("MxM %s time %.3f vs paper %.3f (%.0f%% off)", name, got.got, got.want, 100*rel)
		}
	}
	if md := val(t, "table1", "Double", "MNIST"); md < 0.005 || md > 0.02 {
		t.Errorf("MNIST double time %.4f, paper 0.011", md)
	}
}

func TestFig2Shape(t *testing.T) {
	// Area decreases with precision for both designs; the double->single
	// drop exceeds single->half for MNIST too (qualitatively).
	for _, design := range []string{"MxM", "MNIST"} {
		d := val(t, "fig2", "LUT", design, "double")
		s := val(t, "fig2", "LUT", design, "single")
		h := val(t, "fig2", "LUT", design, "half")
		if !(d > s && s > h) {
			t.Errorf("%s LUTs (%v, %v, %v) not decreasing", design, d, s, h)
		}
	}
	// MNIST needs more resources than MxM (paper Section 4.1).
	if !(val(t, "fig2", "LUT", "MNIST", "single") > val(t, "fig2", "LUT", "MxM", "single")) {
		t.Error("MNIST should use more resources than MxM")
	}
}

func TestFig3Shape(t *testing.T) {
	// FIT decreases with precision for both designs.
	for _, design := range []string{"MxM", "MNIST"} {
		d := val(t, "fig3", "FIT-SDC", design, "double")
		s := val(t, "fig3", "FIT-SDC", design, "single")
		h := val(t, "fig3", "FIT-SDC", design, "half")
		if !(d > s && s > h) {
			t.Errorf("%s FIT (%v, %v, %v) not decreasing with precision", design, d, s, h)
		}
	}
	// MNIST FIT below MxM despite larger area (CNN masking).
	for _, f := range []string{"double", "single", "half"} {
		if !(val(t, "fig3", "FIT-SDC", "MNIST", f) < val(t, "fig3", "FIT-SDC", "MxM", f)) {
			t.Errorf("MNIST FIT should sit below MxM at %s", f)
		}
	}
	// Critical share grows as precision shrinks (paper: 5/14/20%).
	cd := val(t, "fig3", "critical-share", "MNIST", "double")
	cs := val(t, "fig3", "critical-share", "MNIST", "single")
	ch := val(t, "fig3", "critical-share", "MNIST", "half")
	if !(cd < cs && cs < ch) {
		t.Errorf("MNIST critical shares (%v%%, %v%%, %v%%) not increasing", cd, cs, ch)
	}
	// No DUEs on the FPGA, ever.
	for _, design := range []string{"MxM", "MNIST"} {
		for _, f := range []string{"double", "single", "half"} {
			if due := val(t, "fig3", "FIT-DUE", design, f); due != 0 {
				t.Errorf("%s/%s: FPGA DUE FIT %v != 0", design, f, due)
			}
		}
	}
}

func TestFig4Shape(t *testing.T) {
	// At TRE 0.1%, the FIT reduction orders double > single > half.
	d := val(t, "fig4", "reduction", "double", "0.1%")
	s := val(t, "fig4", "reduction", "single", "0.1%")
	h := val(t, "fig4", "reduction", "half", "0.1%")
	if !(d > s && s > h) {
		t.Errorf("TRE 0.1%% reductions (%v, %v, %v) not ordered D > S > H", d, s, h)
	}
	// Double sheds more than half of its errors (paper: ~63%).
	if d < 40 {
		t.Errorf("double reduction at 0.1%% only %v%%, paper reports ~63%%", d)
	}
}

func TestFig5Shape(t *testing.T) {
	// MEBF rises as precision drops for both designs.
	for _, design := range []string{"MxM", "MNIST"} {
		d := val(t, "fig5", "MEBF", design, "double")
		s := val(t, "fig5", "MEBF", design, "single")
		h := val(t, "fig5", "MEBF", design, "half")
		if !(h > s && s > d) {
			t.Errorf("%s MEBF (%v, %v, %v) not increasing as precision drops", design, d, s, h)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	for name, want := range map[string][2]float64{
		"LavaMD": {1.307, 0.801},
		"MxM":    {10.612, 12.028},
		"LUD":    {1.264, 0.818},
	} {
		d := val(t, "table2", "Double", name)
		s := val(t, "table2", "Single", name)
		if abs(d-want[0])/want[0] > 0.1 || abs(s-want[1])/want[1] > 0.1 {
			t.Errorf("%s times (%v, %v) vs paper (%v, %v)", name, d, s, want[0], want[1])
		}
	}
}

func TestFig6Shape(t *testing.T) {
	// Single SDC FIT above double for LavaMD and MxM; LUD similar.
	for _, name := range []string{"LavaMD", "MxM"} {
		d := val(t, "fig6", "FIT-SDC", name, "double")
		s := val(t, "fig6", "FIT-SDC", name, "single")
		if !(s > d) {
			t.Errorf("%s: single SDC FIT %v not above double %v", name, s, d)
		}
	}
	dl := val(t, "fig6", "FIT-SDC", "LUD", "double")
	sl := val(t, "fig6", "FIT-SDC", "LUD", "single")
	if abs(sl-dl)/dl > 0.15 {
		t.Errorf("LUD SDC FIT should be similar across precisions: %v vs %v", dl, sl)
	}
}

func TestFig7Shape(t *testing.T) {
	// PVF is similar for single and double on every code.
	for _, name := range []string{"LavaMD", "MxM", "LUD"} {
		d := val(t, "fig7", "PVF", name, "double")
		s := val(t, "fig7", "PVF", name, "single")
		if abs(d-s) > 0.12 {
			t.Errorf("%s: PVF double %v vs single %v differ too much", name, d, s)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	// Double reduces at least as fast as single for LUD and MxM at 1%.
	for _, name := range []string{"MxM", "LUD"} {
		d := val(t, "fig8", "reduction", name, "double", "1%")
		s := val(t, "fig8", "reduction", name, "single", "1%")
		if d < s-5 { // percent points; allow statistical slack
			t.Errorf("%s: double reduction %v%% well below single %v%%", name, d, s)
		}
	}
	// The paper's LavaMD inversion: single reduces faster than double —
	// faults in the longer table-driven double transcendental's integer
	// sequencing state produce power-of-two-scaled errors no tolerance
	// absorbs.
	dl := val(t, "fig8", "reduction", "LavaMD", "double", "1%")
	sl := val(t, "fig8", "reduction", "LavaMD", "single", "1%")
	if !(sl > dl) {
		t.Errorf("LavaMD: single reduction %v%% not above double %v%% (paper inversion)", sl, dl)
	}
}

func TestFig9Shape(t *testing.T) {
	// Single wins MEBF for LavaMD and LUD, double for MxM.
	for _, name := range []string{"LavaMD", "LUD"} {
		d := val(t, "fig9", "MEBF", name, "double")
		s := val(t, "fig9", "MEBF", name, "single")
		if !(s > d) {
			t.Errorf("%s: single MEBF %v should beat double %v", name, s, d)
		}
	}
	if !(val(t, "fig9", "MEBF", "MxM", "double") > val(t, "fig9", "MEBF", "MxM", "single")) {
		t.Error("MxM: double MEBF should beat single on the Phi")
	}
}

func TestTable3Shape(t *testing.T) {
	for name, want := range map[string][3]float64{
		"Micro-MUL": {6.001, 3.021, 2.232},
		"Micro-ADD": {5.993, 3.024, 2.255},
		"Micro-FMA": {5.998, 3.019, 2.260},
		"LavaMD":    {1.071, 0.554, 0.291},
		"MxM":       {2.327, 1.909, 1.180},
		"YOLOv3":    {0.133, 0.079, 0.283},
	} {
		d := val(t, "table3", "Double", name)
		s := val(t, "table3", "Single", name)
		h := val(t, "table3", "Half", name)
		for i, got := range []float64{d, s, h} {
			if rel := abs(got-want[i]) / want[i]; rel > 0.12 {
				t.Errorf("%s col %d: %.3f vs paper %.3f", name, i, got, want[i])
			}
		}
	}
}

func TestFig10aShape(t *testing.T) {
	fit := func(name, f string) float64 { return val(t, "fig10a", "FIT-SDC", name, f) }
	// MUL and FMA: D > S > H.
	for _, name := range []string{"Micro-MUL", "Micro-FMA"} {
		if !(fit(name, "double") > fit(name, "single") && fit(name, "single") > fit(name, "half")) {
			t.Errorf("%s FIT not ordered D > S > H", name)
		}
	}
	// ADD inverted: double lowest.
	if !(fit("Micro-ADD", "double") < fit("Micro-ADD", "single") &&
		fit("Micro-ADD", "double") < fit("Micro-ADD", "half")) {
		t.Error("ADD: double should have the lowest FIT")
	}
	// FMA > MUL > ADD at each precision.
	for _, f := range []string{"double", "single", "half"} {
		if !(fit("Micro-FMA", f) > fit("Micro-MUL", f) && fit("Micro-MUL", f) > fit("Micro-ADD", f)) {
			t.Errorf("%s: want FMA > MUL > ADD", f)
		}
	}
}

func TestFig10bShape(t *testing.T) {
	// MxM well above LavaMD; FIT decreasing with precision for both.
	for _, f := range []string{"double", "single", "half"} {
		if !(val(t, "fig10b", "FIT-SDC", "MxM", f) > val(t, "fig10b", "FIT-SDC", "LavaMD", f)) {
			t.Errorf("%s: MxM FIT should exceed LavaMD", f)
		}
	}
	for _, name := range []string{"LavaMD", "MxM"} {
		d := val(t, "fig10b", "FIT-SDC", name, "double")
		h := val(t, "fig10b", "FIT-SDC", name, "half")
		if !(d > h) {
			t.Errorf("%s: double FIT %v not above half %v", name, d, h)
		}
	}
}

func TestFig10cShape(t *testing.T) {
	d := val(t, "fig10c", "FIT-SDC", "YOLOv3", "double")
	s := val(t, "fig10c", "FIT-SDC", "YOLOv3", "single")
	h := val(t, "fig10c", "FIT-SDC", "YOLOv3", "half")
	if !(d > s && s > h) {
		t.Errorf("YOLO FIT (%v, %v, %v) not decreasing", d, s, h)
	}
	// Half is *significantly* lower (paper's wording).
	if !(h < 0.5*d) {
		t.Errorf("half FIT %v not significantly below double %v", h, d)
	}
}

func TestFig11aShape(t *testing.T) {
	// Double benefits from the greatest reduction at 0.1% for each op.
	for _, name := range []string{"Micro-MUL", "Micro-ADD", "Micro-FMA"} {
		d := val(t, "fig11a", "reduction", name, "double", "0.1%")
		h := val(t, "fig11a", "reduction", name, "half", "0.1%")
		if !(d > h) {
			t.Errorf("%s: double reduction %v%% not above half %v%%", name, d, h)
		}
	}
}

func TestFig11bShape(t *testing.T) {
	for _, name := range []string{"LavaMD", "MxM"} {
		d := val(t, "fig11b", "reduction", name, "double", "1%")
		h := val(t, "fig11b", "reduction", name, "half", "1%")
		if !(d > h) {
			t.Errorf("%s: double reduction %v%% not above half %v%%", name, d, h)
		}
	}
}

func TestFig11cShape(t *testing.T) {
	// Critical share (detection + classification changes) grows as
	// precision drops.
	crit := func(f string) float64 {
		return val(t, "fig11c", "detection-changed", f) + val(t, "fig11c", "classification-changed", f)
	}
	if !(crit("half") > crit("double")) {
		t.Errorf("half critical share %v%% not above double %v%%", crit("half"), crit("double"))
	}
}

func TestFig12Shape(t *testing.T) {
	for _, name := range []string{"Micro-MUL", "Micro-ADD", "Micro-FMA"} {
		d := val(t, "fig12", "AVF", name, "double")
		s := val(t, "fig12", "AVF", name, "single")
		h := val(t, "fig12", "AVF", name, "half")
		if !(d > s) {
			t.Errorf("%s: double AVF %v not above single %v", name, d, s)
		}
		if abs(s-h) > 0.05 {
			t.Errorf("%s: single %v and half %v AVF should match (same core)", name, s, h)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	// MEBF rises as precision drops for every benchmark except YOLO-half
	// (whose conversion overhead makes it slower than single; it must
	// still beat double).
	for _, name := range []string{"Micro-MUL", "Micro-ADD", "Micro-FMA", "LavaMD", "MxM"} {
		d := val(t, "fig13", "MEBF", name, "double")
		s := val(t, "fig13", "MEBF", name, "single")
		h := val(t, "fig13", "MEBF", name, "half")
		if !(h > s && s > d) {
			t.Errorf("%s MEBF (%v, %v, %v) not increasing as precision drops", name, d, s, h)
		}
	}
	if !(val(t, "fig13", "MEBF", "YOLOv3", "half") > val(t, "fig13", "MEBF", "YOLOv3", "double")) {
		t.Error("YOLO: half MEBF should still beat double")
	}
}

func TestRunAllQuickSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep skipped in -short")
	}
	// Every experiment already ran (and is cached) via the shape tests;
	// this exercises the RunAll path and the renderer.
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.Trials = 60
	cfg.Faults = 60
	// A second, smaller pass through the public entry point.
	tables, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Experiments) {
		t.Fatalf("RunAll returned %d tables for %d experiments", len(tables), len(Experiments))
	}
	for i, d := range Experiments {
		var sb strings.Builder
		if err := tables[i].WriteASCII(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "["+d.ID+"]") {
			t.Errorf("RunAll table %d is not %s (paper order)", i, d.ID)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.trials() != 2000 || c.faults() != 2000 {
		t.Errorf("zero config trials/faults = %d/%d, want 2000", c.trials(), c.faults())
	}
	c.Quick = true
	if c.trials() != 250 || c.faults() != 250 {
		t.Errorf("quick trials/faults = %d/%d, want 250", c.trials(), c.faults())
	}
	one := Config{Seed: 1}
	a := one.seedFor("x", 0)
	b := one.seedFor("y", 0)
	if a == b {
		t.Error("seedFor should separate experiment ids")
	}
	if one.seedFor("x", 0) != a {
		t.Error("seedFor not deterministic")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
