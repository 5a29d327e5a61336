package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/suite"
)

func TestSelectAnalyzersRejectsUnknownName(t *testing.T) {
	_, err := selectAnalyzers("determinism,nosuch")
	if err == nil {
		t.Fatal("selectAnalyzers accepted an unknown analyzer name")
	}
	if !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("error %q does not name the unknown analyzer", err)
	}
}

func TestSelectAnalyzersKeepsRequestedOrder(t *testing.T) {
	got, err := selectAnalyzers("hotalloc, boundedgo")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range got {
		names = append(names, a.Name)
	}
	if want := []string{"hotalloc", "boundedgo"}; !reflect.DeepEqual(names, want) {
		t.Errorf("-only hotalloc,boundedgo selected %v, want %v", names, want)
	}

	all, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(suite.Analyzers()) {
		t.Errorf("empty -only selected %d analyzers, want the whole suite (%d)", len(all), len(suite.Analyzers()))
	}
}

func TestPrintFindingsJSON(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(filepath.Dir(filepath.Dir(wd)), "elsewhere", "y.go")
	findings := []analysis.Finding{
		{
			Analyzer: "boundedgo",
			Package:  "mixedrel/internal/exec",
			Pos:      token.Position{Filename: filepath.Join(wd, "internal", "exec", "exec.go"), Line: 205, Column: 3},
			Message:  "go statement outside internal/exec",
		},
		{
			Analyzer: "softfloat",
			Package:  "other",
			Pos:      token.Position{Filename: outside, Line: 1, Column: 2},
			Message:  "native float",
		},
	}

	var buf bytes.Buffer
	printFindings(&buf, findings, true)
	var got []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not a jsonFinding array: %v\n%s", err, buf.String())
	}
	want := []jsonFinding{
		{Analyzer: "boundedgo", Package: "mixedrel/internal/exec", File: filepath.Join("internal", "exec", "exec.go"), Line: 205, Column: 3, Message: "go statement outside internal/exec"},
		{Analyzer: "softfloat", Package: "other", File: outside, Line: 1, Column: 2, Message: "native float"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("printFindings JSON = %+v, want %+v", got, want)
	}

	buf.Reset()
	printFindings(&buf, nil, true)
	if got := buf.String(); got != "[]\n" {
		t.Errorf("no findings printed %q, want an empty JSON array", got)
	}
}
