package beam

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/xeonphi"
)

// compatExperiment is the campaign whose journal is checked in as
// testdata/beam.jsonl, written by an earlier release with Workers: 1.
func compatExperiment(t *testing.T) Experiment {
	m := mustMap(t, xeonphi.New(), kernels.NewGEMM(6, 2), fp.Single)
	return Experiment{Mapping: m, Trials: 30, Seed: 11, Workers: 1,
		BehavioralDUE: true, TrapNonFinite: true}
}

// TestJournalCompat: the checked-in journal resumes with zero new
// trials (the file is untouched) to the result of a fresh run, and a
// fresh run writes the checked-in bytes.
func TestJournalCompat(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "beam.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old := filepath.Join(dir, "old.jsonl")
	if err := os.WriteFile(old, want, 0o644); err != nil {
		t.Fatal(err)
	}
	e := compatExperiment(t)
	e.Checkpoint = &exec.Checkpoint{Path: old}
	resumed, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(old); !bytes.Equal(after, want) {
		t.Error("resuming a complete journal changed it (new trials ran)")
	}

	fresh := filepath.Join(dir, "fresh.jsonl")
	e.Checkpoint = &exec.Checkpoint{Path: fresh}
	ref, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(fresh); !bytes.Equal(got, want) {
		t.Error("fresh journal bytes differ from testdata/beam.jsonl")
	}
	gotJSON, _ := json.Marshal(resumed)
	refJSON, _ := json.Marshal(ref)
	if !bytes.Equal(gotJSON, refJSON) {
		t.Errorf("resumed result diverges from a fresh run:\n got %s\nwant %s", gotJSON, refJSON)
	}
}
