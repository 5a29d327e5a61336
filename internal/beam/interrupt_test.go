package beam

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"mixedrel/internal/chaos"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/xeonphi"
)

// interruptBase is the behavioral campaign the interruption tests
// disturb; its undisturbed reference runs with per-trial streams.
func interruptBase(t *testing.T) (Experiment, []byte) {
	t.Helper()
	m := mustMap(t, xeonphi.New(), kernels.NewGEMM(6, 2), fp.Single)
	base := Experiment{Mapping: m, Trials: 30, Seed: 13, Workers: 2,
		BehavioralDUE: true, TrapNonFinite: true}
	ref, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return base, refJSON
}

// TestBeamCancelThenResume: a beam campaign cancelled mid-run reports
// exactly the trials its journal holds, and re-running without the
// cancelled context completes byte-identically to an undisturbed run.
func TestBeamCancelThenResume(t *testing.T) {
	base, refJSON := interruptBase(t)

	disk := chaos.NewNullFS()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := base
	e.Context = ctx
	// Every: 1 syncs each record: cancel once five are durable.
	syncs := 0 // OnOp runs under the journal's lock
	e.Checkpoint = &exec.Checkpoint{Path: "ck.jsonl", Every: 1, FS: &chaos.FS{
		Inner: disk,
		OnOp: func(_ int64, op chaos.Op) {
			if op == chaos.OpSync {
				if syncs++; syncs == 5 {
					cancel()
				}
			}
		},
	}}
	_, err := e.Run()
	var in *exec.Interrupted
	if !errors.As(err, &in) {
		t.Fatalf("err = %v, want *exec.Interrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("Interrupted does not unwrap to the context error")
	}
	if in.Journaled < 5 || in.Journaled >= base.Trials {
		t.Fatalf("Journaled = %d, want mid-campaign (5..%d)", in.Journaled, base.Trials-1)
	}
	journal, _ := disk.Bytes("ck.jsonl")
	if got := bytes.Count(journal, []byte("\n")); got != in.Journaled {
		t.Fatalf("Journaled = %d but the journal holds %d records", in.Journaled, got)
	}

	e.Context = nil
	e.Checkpoint.FS = disk
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointDegraded || res.CheckpointError != "" {
		t.Fatalf("clean resume flagged degraded: %+v", res)
	}
	gotJSON, _ := json.Marshal(res)
	if string(gotJSON) != string(refJSON) {
		t.Fatalf("resumed result diverges:\n got %s\nwant %s", gotJSON, refJSON)
	}
}

// TestBeamDegradedJournal: a journal whose every write fails degrades
// instead of failing the campaign; the result says so, and its
// statistics equal the undisturbed run's.
func TestBeamDegradedJournal(t *testing.T) {
	base, refJSON := interruptBase(t)

	for _, workers := range []int{1, 2} {
		e := base
		e.Workers = workers
		e.Checkpoint = &exec.Checkpoint{Path: "ck.jsonl", Every: 1, RetryBackoff: -1,
			FS: &chaos.FS{Inner: chaos.NewNullFS(), PWrite: 1}}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.CheckpointDegraded || res.CheckpointError == "" {
			t.Fatalf("workers=%d: dead disk not reported: degraded=%v error=%q",
				workers, res.CheckpointDegraded, res.CheckpointError)
		}
		res.CheckpointDegraded, res.CheckpointError = false, ""
		gotJSON, _ := json.Marshal(res)
		if string(gotJSON) != string(refJSON) {
			t.Fatalf("workers=%d: degraded result diverges:\n got %s\nwant %s", workers, gotJSON, refJSON)
		}
	}
}
