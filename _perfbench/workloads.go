package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"

	"mixedrel"
	"mixedrel/internal/fp"
	"mixedrel/internal/inject"
	"mixedrel/internal/rng"
)

// Workload sizes. They are part of the protocol: results measured at
// other sizes are not comparable.
const (
	ludN           = 48
	ludBudget      = 1_000_000 // hard cap; the CI target stops the campaign long before
	ludCIHalfWidth = 0.002

	campaignWorkers = 2

	// checkSubset is how many of a campaign workload's faults are re-run
	// with and without compiled replay in the output check.
	checkSubset = 200
	// traceSamples is how many faults the traced run times one by one
	// through Runner.RunSpec: enough for ten samples beyond the p99.
	traceSamples = 2000

	// The fixture seeds reproduce's harness uses.
	seedGEMMFixture = 1001
	seedMNIST       = 1005
	seedYOLO        = 1006
)

// sizes renders a workload's sizes for the protocol record.
func sizes(workload string) string {
	switch workload {
	case wlReproduce:
		return fmt.Sprintf("reproduce -quick (250 trials/faults per configuration), seeds %v", reproduceSeeds)
	case wlLUD:
		return fmt.Sprintf("lud n=%d single, adaptive stratified operand+memory+control, ci half-width %g, budget %d, %d workers, checkpointed",
			ludN, ludCIHalfWidth, ludBudget, campaignWorkers)
	}
	return ""
}

// reproduceSeeds are the reproduce -quick seeds whose tables have a
// recorded reference digest. 2019 is reproduce's default; a run covers
// several consecutive entries, so every run also checks seeds that were
// never used while tuning.
var reproduceSeeds = []uint64{2019, 2020, 2021, 2022, 2023, 2024, 2025, 2026}

//go:embed refs/reproduce_quick.json
var reproduceRefsJSON []byte

// reproduceRefs maps a reproduce seed to the SHA-256 of the tables
// `reproduce -quick -seed <seed>` prints.
func reproduceRefs() (map[uint64]string, error) {
	var raw map[string]string
	if err := json.Unmarshal(reproduceRefsJSON, &raw); err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	out := make(map[uint64]string, len(raw))
	for k, v := range raw {
		var s uint64
		if _, err := fmt.Sscan(k, &s); err != nil {
			return nil, fmt.Errorf("reference digest key %q: %w", k, err)
		}
		out[s] = v
	}
	return out, nil
}

// splitmix64 is the benchmark's own seed mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// repSeed derives the workload seed of repetition rep of a run. For
// reproduce-quick it walks the reference seeds from a position the run
// seed picks; for the campaigns it is a fresh 64-bit seed.
func repSeed(workload string, runSeed uint64, rep int) uint64 {
	if workload == wlReproduce {
		n := uint64(len(reproduceSeeds))
		return reproduceSeeds[(runSeed%n+uint64(rep))%n]
	}
	return splitmix64(runSeed ^ splitmix64(uint64(rep)+1))
}

// Seed salts: the kernel's inputs, the checked fault subset and the
// traced fault sequence each draw from their own stream of the rep seed.
const (
	saltInputs = 0x1
	saltCheck  = 0x2
	saltTrace  = 0x3
)

// campaignKernel builds the campaign workload's kernel from its seed.
func campaignKernel(seed uint64) mixedrel.Kernel {
	return mixedrel.NewLUD(ludN, splitmix64(seed^saltInputs))
}

// campaignSites are the fault sites of the campaign workload.
var campaignSites = []inject.Site{inject.SiteOperand, inject.SiteMemory, inject.SiteControl}

// campaignFor returns the user-level campaign lud-adaptive runs,
// journaled to a checkpoint in the fresh directory dir.
func campaignFor(seed uint64, k mixedrel.Kernel, dir string) mixedrel.InjectionCampaign {
	return mixedrel.InjectionCampaign{
		Kernel:     k,
		Format:     mixedrel.Single,
		Seed:       seed,
		Sites:      campaignSites,
		Workers:    campaignWorkers,
		Faults:     ludBudget,
		Sampling:   &mixedrel.Sampling{Phases: 3, Adaptive: true, CIHalfWidth: ludCIHalfWidth},
		Checkpoint: &mixedrel.Checkpoint{Path: filepath.Join(dir, "lud.ckpt")},
	}
}

// faultSpecs draws n fault specifications from the campaign's fault
// distribution: a site chosen uniformly from its sites, then a fault of
// that site, as a uniform campaign draws them. They are the inputs of
// the output check and of the traced per-sample timing.
func faultSpecs(seed uint64, n int, counts fp.OpCounts, lens []int, f fp.Format) []inject.FaultSpec {
	r := rng.New(seed)
	specs := make([]inject.FaultSpec, n)
	for i := range specs {
		s := &specs[i]
		switch campaignSites[r.Intn(len(campaignSites))] {
		case inject.SiteOperand:
			op := inject.SampleOpFault(r, counts, f, 0, true, inject.TargetOperand)
			s.Op = &op
		case inject.SiteMemory:
			s.Mem = []inject.MemFault{inject.SampleMemFault(r, lens, f)}
		case inject.SiteControl:
			cf := inject.SampleControlFault(r, counts)
			s.Control = &cf
		}
		s.Watchdog = inject.DefaultWatchdogFactor
	}
	return specs
}
