package inject

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

// compatCampaigns are the campaigns whose journals are checked in under
// testdata/, written by an earlier release with Workers: 1. The journal
// format is a compatibility contract: checkpoints written before an
// engine change must still resume.
func compatCampaigns() map[string]Campaign {
	return map[string]Campaign{
		"uniform.jsonl": {
			Kernel: kernels.NewGEMM(4, 2), Format: fp.Single,
			Faults: 24, Seed: 7, Workers: 1, KeepOutputs: true,
			Sites: []Site{SiteOperation, SiteOperand, SiteMemory, SiteControl},
		},
		"stratified.jsonl": {
			Kernel: kernels.NewGEMM(4, 3), Format: fp.Single,
			Faults: 40, Seed: 9, Workers: 1,
			Sites:    []Site{SiteOperand, SiteMemory, SiteControl},
			Sampling: &Sampling{Round: 16, MinPerStratum: 1},
		},
	}
}

// TestJournalCompat: each checked-in journal resumes with zero new
// samples (the file is untouched) to the result of a fresh run, and a
// fresh run writes the checked-in bytes.
func TestJournalCompat(t *testing.T) {
	for name, base := range compatCampaigns() {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			old := filepath.Join(dir, "old.jsonl")
			if err := os.WriteFile(old, want, 0o644); err != nil {
				t.Fatal(err)
			}
			c := base
			c.Checkpoint = &exec.Checkpoint{Path: old}
			resumed, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if after, _ := os.ReadFile(old); !bytes.Equal(after, want) {
				t.Error("resuming a complete journal changed it (new samples ran)")
			}

			fresh := filepath.Join(dir, "fresh.jsonl")
			c.Checkpoint = &exec.Checkpoint{Path: fresh}
			ref, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(fresh); !bytes.Equal(got, want) {
				t.Errorf("fresh journal bytes differ from testdata/%s", name)
			}
			gotJSON, _ := json.Marshal(resumed)
			refJSON, _ := json.Marshal(ref)
			if !bytes.Equal(gotJSON, refJSON) {
				t.Errorf("resumed result diverges from a fresh run:\n got %s\nwant %s", gotJSON, refJSON)
			}
		})
	}
}
