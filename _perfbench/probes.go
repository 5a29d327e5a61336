package main

import (
	"encoding/json"
	"fmt"
	"os"

	"mixedrel"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
	"mixedrel/internal/traceir"
)

// Probe sizes: each probe takes a few tenths of a second.
const (
	probeRepeats  = 3
	probeFMAOps   = 1 << 20
	probeDotLen   = 256
	probeDotCalls = 4096
)

// runProbes times single layers in isolation, each call wrapped in a
// span: the fixture constructors, a cold artifact build and a trace
// compile of the workload's kernel, the softfloat FMA and batch dot
// product, and one small beam campaign per fault model. It runs once
// per traced run, in its own process, and prints its result as one JSON
// line.
func runProbes(o repOpts) error {
	tr := NewTracer(o.RunID, 64)
	res := repResult{Workload: o.Workload, Seed: o.Seed, Traced: true, Layer: map[string]float64{}}
	l := res.Layer
	root := tr.Begin("probes", 0)

	s := tr.Begin("kernels.NewMNIST", root)
	mnist := kernels.NewMNIST(1, seedMNIST)
	tr.End(s)
	l["kernels.mnist_train_s"] = secs(tr, s)
	s = tr.Begin("kernels.NewYOLO", root)
	kernels.NewYOLO(seedYOLO)
	tr.End(s)
	l["kernels.yolo_build_s"] = secs(tr, s)

	// The kernel whose set-up the workload pays: the MNIST fixture for
	// reproduce-quick (the largest artifact its set-up builds), else the
	// campaign's own kernel.
	var k kernels.Kernel = mnist
	if o.Workload != wlReproduce {
		k = campaignKernel(o.Seed)
	}
	f := fp.Single
	var cold, compile []float64
	var prog *traceir.Program
	in := k.Inputs(f)
	for i := 0; i < probeRepeats; i++ {
		exec.ResetCache()
		s := tr.Begin("exec.Artifact cold", root)
		exec.Artifact(k, f, "", nil)
		tr.End(s)
		cold = append(cold, secs(tr, s))

		s = tr.Begin("traceir.Recorder+Compile", root)
		rec := traceir.NewRecorder(fp.NewMachine(f))
		k.Run(rec, in)
		prog = rec.Compile()
		tr.End(s)
		compile = append(compile, secs(tr, s))
	}
	l["exec.artifact_cold_s"] = median(cold)
	l["traceir.compile_s"] = median(compile)
	if prog == nil {
		res.failf("%s: the trace program did not compile", k.Name())
	} else {
		l["traceir.regions"] = float64(len(prog.Regions()))
		l["traceir.ops"] = float64(prog.Ops())
	}

	for _, pf := range []struct {
		name string
		f    fp.Format
	}{{"half", fp.Half}, {"single", fp.Single}, {"double", fp.Double}} {
		s := tr.Begin("fp.Machine.FMA "+pf.name, root)
		sink := fmaLoop(pf.f, o.Seed)
		tr.End(s)
		l["fp.fma_ns."+pf.name] = secs(tr, s) * 1e9 / probeFMAOps
		keep(sink)
	}
	s = tr.Begin("fp.DotFMA single", root)
	keep(dotLoop(fp.Single, o.Seed))
	tr.End(s)
	l["fp.dot_ns_per_elem.single"] = secs(tr, s) * 1e9 / (probeDotLen * probeDotCalls)

	if err := beamProbes(tr, root, mnist, o.Seed, l); err != nil {
		res.failf("beam probe: %v", err)
	}
	tr.End(root)
	res.Spans = summarize(tr.Spans())
	if err := writeSpans(o, tr); err != nil {
		res.failf("writing spans: %v", err)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// secs returns the duration of span id in seconds.
func secs(tr *Tracer, id int) float64 { return float64(tr.Spans()[id-1].Dur()) / 1e9 }

// sinkBits keeps probe results observable so loops are not optimized
// away.
var sinkBits fp.Bits

func keep(b fp.Bits) { sinkBits ^= b }

// probeOperands returns n encoded values in ±[0.5, 2), a range every
// format represents without overflow or subnormals.
func probeOperands(f fp.Format, r *rng.Rand, n int) []fp.Bits {
	m := fp.NewMachine(f)
	out := make([]fp.Bits, n)
	for i := range out {
		v := 0.5 + 1.5*r.Float64()
		if r.Intn(2) == 0 {
			v = -v
		}
		out[i] = m.FromFloat64(v)
	}
	return out
}

// fmaLoop issues probeFMAOps independent scalar FMAs.
func fmaLoop(f fp.Format, seed uint64) fp.Bits {
	const n = 1024
	r := rng.New(seed)
	a, b, c := probeOperands(f, r, n), probeOperands(f, r, n), probeOperands(f, r, n)
	m := fp.NewMachine(f)
	var acc fp.Bits
	for i := 0; i < probeFMAOps; i++ {
		j := i & (n - 1)
		acc ^= m.FMA(a[j], b[j], c[j])
	}
	return acc
}

// dotLoop issues probeDotCalls batch dot products of probeDotLen
// elements.
func dotLoop(f fp.Format, seed uint64) fp.Bits {
	r := rng.New(seed)
	a, b := probeOperands(f, r, probeDotLen), probeOperands(f, r, probeDotLen)
	m := fp.NewMachine(f)
	var acc fp.Bits
	for i := 0; i < probeDotCalls; i++ {
		acc ^= fp.DotFMA(m, 0, a, b)
	}
	return acc
}

// beamProbes runs one small beam campaign per fault model and reports
// the time per trial: persistent configuration-memory faults on the
// FPGA for MxM and MNIST, transient faults on the GPU for MxM. The
// mappings' artifacts are built before timing, so only trials are
// measured.
func beamProbes(tr *Tracer, root int, mnist *kernels.MNIST, seed uint64, l map[string]float64) error {
	gemm := mixedrel.NewGEMM(16, seedGEMMFixture)
	gemmOps := float64(exec.Artifact(gemm, fp.Double, "", nil).Counts.Total())
	// Trial counts give each probe about a tenth of a second or more: an
	// MxM trial costs microseconds, an MNIST trial about a millisecond.
	probes := []struct {
		name   string
		dev    mixedrel.Device
		w      mixedrel.Workload
		trials int
	}{
		{"fpga_mxm", mixedrel.NewFPGA(), mixedrel.NewWorkload(gemm, 512, 64), 20000},
		{"fpga_mnist", mixedrel.NewFPGA(), mixedrel.NewWorkload(mnist, 1, 1), 250},
		{"gpu_mxm", mixedrel.NewGPU(), mixedrel.NewWorkload(gemm, 1.6e11/gemmOps, 1.6e4), 20000},
	}
	for i, p := range probes {
		m, err := p.dev.Map(p.w, mixedrel.Single)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		exec.Artifact(m.Kernel, m.Format, m.WrapKey, m.Wrap)
		s := tr.Begin("BeamExperiment.Run "+p.name, root)
		r, err := mixedrel.BeamExperiment{Mapping: m, Trials: p.trials, Seed: splitmix64(seed + uint64(i))}.Run()
		tr.End(s)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		l["beam.trial_us."+p.name] = secs(tr, s) * 1e6 / float64(r.Trials)
	}
	return nil
}
