package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Protocol records every knob a result depends on. Two results can be
// compared only when all fields except the code under test (Commit,
// SourceSHA) and the per-run ones (Seed, Reps) agree.
type Protocol struct {
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	BenchSHA   string `json:"bench_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	Workload   string `json:"workload"`
	Sizes      string `json:"sizes"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
}

// mismatches lists the comparable fields on which p and q differ.
func (p Protocol) mismatches(q Protocol) []string {
	var out []string
	check := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	check("bench_sha256", p.BenchSHA, q.BenchSHA)
	check("go_version", p.GoVersion, q.GoVersion)
	check("gomaxprocs", p.GOMAXPROCS, q.GOMAXPROCS)
	check("nproc", p.NumCPU, q.NumCPU)
	check("cpu_model", p.CPUModel, q.CPUModel)
	check("gogc", p.GOGC, q.GOGC)
	check("gomemlimit", p.GOMEMLIMIT, q.GOMEMLIMIT)
	check("workload", p.Workload, q.Workload)
	check("sizes", p.Sizes, q.Sizes)
	check("seconds", p.Seconds, q.Seconds)
	check("trace", p.Trace, q.Trace)
	return out
}

// newProtocol describes the host, the toolchain and the run.
func newProtocol(root, workload string, seed uint64, seconds int, trace bool) Protocol {
	return Protocol{
		Commit:     gitHead(root),
		SourceSHA:  treeDigest(root, isProgramFile),
		BenchSHA:   treeDigest(root, isBenchFile),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOGC:       envOr("GOGC", "100"),
		GOMEMLIMIT: envOr("GOMEMLIMIT", "off"),
		Workload:   workload,
		Sizes:      sizes(workload),
		Seconds:    seconds,
		Trace:      trace,
		Seed:       seed,
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// GOARCH where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitHead returns the commit checked out at root, or "" when root is not
// a git work tree (a source export carries no commit; its SourceSHA
// identifies the code instead).
func gitHead(root string) string {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(git, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// benchDir is the benchmark's directory, relative to the checkout root.
const benchDir = "_perfbench"

// isProgramFile selects the program's sources: Go files and module
// files outside the benchmark and hidden or underscore directories.
func isProgramFile(rel string) bool {
	if strings.HasPrefix(rel, benchDir+"/") {
		return false
	}
	base := filepath.Base(rel)
	return strings.HasSuffix(base, ".go") || base == "go.mod" || base == "go.sum"
}

// isBenchFile selects the benchmark's own files and its definition.
func isBenchFile(rel string) bool {
	return strings.HasPrefix(rel, benchDir+"/") || rel == "BENCHMARK.json"
}

// treeDigest hashes the selected files under root (path and content, in
// path order), skipping build output and version-control metadata.
func treeDigest(root string, keep func(rel string) bool) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || (strings.HasPrefix(d.Name(), "_") && rel != benchDir)) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() && keep(rel) {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		if _, err := io.Copy(h, f); err != nil {
			fmt.Fprintf(h, "\x00unreadable: %v", err)
		}
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
