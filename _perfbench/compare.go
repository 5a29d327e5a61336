package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads one result record, or every *.json record in a
// directory.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return out, nil
}

// checkComparable returns an error naming every protocol difference between
// records that share a workload and tracing mode.
func checkComparable(recs []record) error {
	first := map[string]Protocol{}
	var diffs []string
	for _, r := range recs {
		key := groupKey(r.Protocol)
		p, ok := first[key]
		if !ok {
			first[key] = r.Protocol
			continue
		}
		for _, d := range p.mismatches(r.Protocol) {
			diffs = append(diffs, key+": "+d)
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("protocols differ, results are not comparable:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}

func groupKey(p Protocol) string { return fmt.Sprintf("%s/trace=%v", p.Workload, p.Trace) }

// runCompare prints, per workload and metric, the median over the base
// records and over the head records and their relative difference. It
// refuses to compare records measured under different protocols.
func runCompare(w io.Writer, basePath, headPath string) error {
	base, err := loadRecords(basePath)
	if err != nil {
		return err
	}
	head, err := loadRecords(headPath)
	if err != nil {
		return err
	}
	if err := checkComparable(append(append([]record(nil), base...), head...)); err != nil {
		return err
	}
	medians := func(recs []record) map[string]map[string]float64 {
		vals := map[string]map[string][]float64{}
		for _, r := range recs {
			k := groupKey(r.Protocol)
			if vals[k] == nil {
				vals[k] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				vals[k][name] = append(vals[k][name], m.Value)
			}
		}
		out := map[string]map[string]float64{}
		for k, ms := range vals {
			out[k] = map[string]float64{}
			for name, vs := range ms {
				out[k][name] = median(vs)
			}
		}
		return out
	}
	b, h := medians(base), medians(head)
	var keys []string
	for k := range b {
		if _, ok := h[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no workload is measured on both sides")
	}
	for _, k := range keys {
		fmt.Fprintf(w, "%s\n%-28s %14s %14s %9s\n", k, "metric", "base", "head", "delta")
		var names []string
		for name := range b[k] {
			if _, ok := h[k][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			bv, hv := b[k][name], h[k][name]
			delta := "-"
			if bv != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(hv-bv)/bv)
			}
			fmt.Fprintf(w, "%-28s %14.6g %14.6g %9s\n", name, bv, hv, delta)
		}
	}
	return nil
}
