package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"mixedrel/internal/exec"
)

// Config parameterizes a driver run.
type Config struct {
	// Workers bounds how many import-independent packages are analyzed
	// concurrently (<=1 is sequential). Parallelism runs under the
	// repo's own bounded scheduler (exec.ForEach), and output is
	// byte-identical at any worker count.
	Workers int
	// Known lists every analyzer name that may legally appear in an
	// //mixedrelvet:allow directive. Defaults to the names of the
	// analyzers being run; cmd/mixedrelvet passes the full suite so a
	// restricted -only run does not misreport other analyzers'
	// directives as unknown.
	Known []string
	// Lookup resolves an import path to its loaded package, letting the
	// driver pull in and analyze dependencies outside the requested set
	// (facts must exist for every package a requested one imports). Nil
	// restricts the universe to the requested packages.
	Lookup func(path string) *Package
}

// Result is a completed driver run.
type Result struct {
	// Findings holds the diagnostics of the requested packages in
	// canonical order.
	Findings []Finding
	// Facts holds every fact exported during the run (requested packages
	// and their dependencies), in deterministic order.
	Facts []*FactRecord
}

// Run analyzes the requested packages (and, through cfg.Lookup, every
// first-party package they transitively import) with the given
// analyzers. Packages are processed in topological import order so each
// pass sees the facts of everything it imports, and import-independent
// packages run in parallel.
func Run(cfg Config, requested []*Package, analyzers []*Analyzer) (*Result, error) {
	closure, err := analyzerClosure(analyzers)
	if err != nil {
		return &Result{}, err
	}

	known := make(map[string]bool)
	for _, name := range cfg.Known {
		known[name] = true
	}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		known[a.Name] = true
	}

	units, err := buildUniverse(cfg, requested)
	if err != nil {
		return &Result{}, err
	}
	waves, err := topoWaves(units)
	if err != nil {
		return &Result{}, err
	}

	global := make(map[factKey]*FactRecord)
	res := &Result{}
	var errs []string

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	for _, wave := range waves {
		type slot struct {
			findings []Finding
			facts    map[factKey]*FactRecord
			err      error
		}
		slots := make([]slot, len(wave))
		ferr := exec.ForEach(workers, len(wave), func(i int) error {
			s := &slots[i]
			s.findings, s.facts, s.err = analyzePackage(wave[i], closure, analyzers, global, known, ran)
			return nil
		})
		if ferr != nil {
			return res, ferr
		}
		for i, s := range slots {
			u := wave[i]
			if s.err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", u.pkg.Path, s.err))
				continue
			}
			for k, r := range s.facts {
				global[k] = r
			}
			if u.requested {
				res.Findings = append(res.Findings, s.findings...)
			}
		}
	}

	sort.Slice(res.Findings, func(i, j int) bool { return lessFinding(res.Findings[i], res.Findings[j]) })
	res.Facts = sortedRecords(global)
	if len(errs) > 0 {
		sort.Strings(errs)
		return res, fmt.Errorf("analyzer errors:\n  %s", strings.Join(errs, "\n  "))
	}
	return res, nil
}

// unit is one package scheduled for analysis.
type unit struct {
	pkg       *Package
	requested bool
	deps      []*unit
}

// buildUniverse collects the requested packages plus every first-party
// package they transitively import (resolved through cfg.Lookup).
func buildUniverse(cfg Config, requested []*Package) (map[string]*unit, error) {
	units := make(map[string]*unit)
	byPath := make(map[string]*Package)
	for _, p := range requested {
		byPath[p.Path] = p
	}
	lookup := func(path string) *Package {
		if p, ok := byPath[path]; ok {
			return p
		}
		if cfg.Lookup != nil {
			return cfg.Lookup(path)
		}
		return nil
	}
	var add func(p *Package, req bool) *unit
	add = func(p *Package, req bool) *unit {
		u, ok := units[p.Path]
		if ok {
			u.requested = u.requested || req
			return u
		}
		u = &unit{pkg: p, requested: req}
		units[p.Path] = u // before recursing: terminates on cycles
		for _, imp := range packageImports(p) {
			if dep := lookup(imp); dep != nil && dep.Path != p.Path {
				u.deps = append(u.deps, add(dep, false))
			}
		}
		return u
	}
	for _, p := range requested {
		add(p, true)
	}
	return units, nil
}

// packageImports returns the sorted import paths of the package's
// non-test files. Test-file imports are excluded: analyzers skip test
// files, so those dependencies contribute no facts.
func packageImports(p *Package) []string {
	seen := make(map[string]bool)
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		if tf != nil && strings.HasSuffix(tf.Name(), "_test.go") {
			continue
		}
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil {
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for path := range seen {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// topoWaves partitions the units into topological levels: every package
// in wave i only imports packages in waves < i, so each wave can run
// fully in parallel once the previous ones completed. Waves and their
// members are deterministically ordered.
func topoWaves(units map[string]*unit) ([][]*unit, error) {
	depth := make(map[*unit]int)
	var visit func(u *unit, stack map[*unit]bool) (int, error)
	visit = func(u *unit, stack map[*unit]bool) (int, error) {
		if d, ok := depth[u]; ok {
			if d == -1 {
				return 0, fmt.Errorf("import cycle through %s", u.pkg.Path)
			}
			return d, nil
		}
		depth[u] = -1
		max := 0
		for _, dep := range u.deps {
			d, err := visit(dep, stack)
			if err != nil {
				return 0, err
			}
			if d+1 > max {
				max = d + 1
			}
		}
		depth[u] = max
		return max, nil
	}
	paths := make([]string, 0, len(units))
	for path := range units {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	maxDepth := 0
	for _, path := range paths {
		d, err := visit(units[path], nil)
		if err != nil {
			return nil, err
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	waves := make([][]*unit, maxDepth+1)
	for _, path := range paths {
		u := units[path]
		waves[depth[u]] = append(waves[depth[u]], u)
	}
	return waves, nil
}

// analyzerClosure expands the run set with everything it Requires,
// in dependency order (requirements before dependents), detecting
// cycles.
func analyzerClosure(analyzers []*Analyzer) ([]*Analyzer, error) {
	var out []*Analyzer
	state := make(map[*Analyzer]int) // 1 = visiting, 2 = done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("requirement cycle through analyzer %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		state[a] = 2
		out = append(out, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// analyzePackage runs the analyzer closure over one package, collecting
// diagnostics and locally exported facts, then validates the package's
// directives. Analyzers for one package run sequentially in requirement
// order; only cross-package parallelism exists, so the per-package state
// (directive usage, ResultOf) needs no locking.
func analyzePackage(u *unit, closure, requestedAnalyzers []*Analyzer, global map[factKey]*FactRecord, known, ran map[string]bool) ([]Finding, map[factKey]*FactRecord, error) {
	pkg := u.pkg
	ds := parseDirectives(pkg.Fset, pkg.Files)
	facts := &factAccess{global: global, local: make(map[factKey]*FactRecord)}
	results := make(map[*Analyzer]interface{})
	var findings []Finding
	var errs []string

	inRunSet := make(map[*Analyzer]bool)
	for _, a := range requestedAnalyzers {
		inRunSet[a] = true
	}

	for _, a := range closure {
		pass := &Pass{
			Analyzer:   a,
			Path:       pkg.Path,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			ResultOf:   make(map[*Analyzer]interface{}),
			facts:      facts,
			directives: ds,
		}
		for _, req := range a.Requires {
			pass.ResultOf[req] = results[req]
		}
		reporting := inRunSet[a]
		pass.Report = func(d Diagnostic) {
			if !reporting {
				return
			}
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Package:  pkg.Path,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		result, err := a.Run(pass)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", a.Name, err))
			continue
		}
		results[a] = result
	}

	validateDirectives(pkg.Fset, ds, known, ran, func(pos token.Pos, msg string) {
		findings = append(findings, Finding{
			Analyzer: DirectivesAnalyzerName,
			Package:  pkg.Path,
			Pos:      pkg.Fset.Position(pos),
			Message:  msg,
		})
	})

	if len(errs) > 0 {
		return findings, facts.local, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return findings, facts.local, nil
}
