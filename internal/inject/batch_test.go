package inject

import (
	"fmt"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// noBatch hides the batch methods of an environment, forcing the fp
// batch helpers onto their scalar decomposition — the reference behavior
// the injector's batch path must reproduce bit-for-bit.
type noBatch struct {
	fp.Env
}

// traceRec records every scalar operation result, reproducing the trace
// exec's recorder would capture for the same stream.
type traceRec struct {
	fp.Env
	trace []fp.Bits
}

func (r *traceRec) rec(b fp.Bits) fp.Bits { r.trace = append(r.trace, b); return b }

func (r *traceRec) Add(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Add(a, b)) }
func (r *traceRec) Sub(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Sub(a, b)) }
func (r *traceRec) Mul(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Mul(a, b)) }
func (r *traceRec) Div(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Div(a, b)) }
func (r *traceRec) FMA(a, b, c fp.Bits) fp.Bits { return r.rec(r.Env.FMA(a, b, c)) }
func (r *traceRec) Sqrt(a fp.Bits) fp.Bits      { return r.rec(r.Env.Sqrt(a)) }
func (r *traceRec) Exp(a fp.Bits) fp.Bits       { return r.rec(r.Env.Exp(a)) }

// runStream drives a fixed mixed batch/scalar operation stream through
// env and returns every produced value. It mirrors the shapes kernels
// use: dot chains, element-wise maps, broadcast AXPYs, and interleaved
// scalar operations.
func runStream(env fp.Env, f fp.Format) []fp.Bits {
	mk := func(n, salt int) []fp.Bits {
		out := make([]fp.Bits, n)
		for i := range out {
			out[i] = f.FromFloat64(0.25 + float64((i*7+salt*3)%23)/16)
		}
		return out
	}
	a7, b7 := mk(7, 1), mk(7, 2)
	a5, b5 := mk(5, 3), mk(5, 4)
	a4, b4 := mk(4, 5), mk(4, 6)
	x6, d6 := mk(6, 7), mk(6, 8)
	a3, b3, c3 := mk(3, 9), mk(3, 10), mk(3, 11)

	var out []fp.Bits
	out = append(out, fp.DotFMA(env, env.FromFloat64(0), a7, b7))
	dst5 := make([]fp.Bits, 5)
	fp.AddN(env, dst5, a5, b5)
	out = append(out, dst5...)
	out = append(out, env.Mul(out[0], dst5[0]))
	dst4 := make([]fp.Bits, 4)
	fp.MulN(env, dst4, a4, b4)
	out = append(out, dst4...)
	dst6 := append([]fp.Bits(nil), d6...)
	fp.AXPY(env, dst6, out[1], x6)
	out = append(out, dst6...)
	dst3 := make([]fp.Bits, 3)
	fp.FMAN(env, dst3, a3, b3, c3)
	out = append(out, dst3...)
	out = append(out, env.Add(out[2], dst3[0]))
	out = append(out, fp.DotFMA(env, out[3], a3, b3)) // second chain, shares operands
	// Empty and length-1 batches must be no-ops / single ops.
	out = append(out, fp.DotFMA(env, out[4], nil, nil))
	fp.AddN(env, dst3[:1], a3[:1], b3[:1])
	out = append(out, dst3[0])
	// Shaped batches: a 3-chain block over a shared vector (3x2 FMAs) and
	// a 2x2 grid with per-row accumulators (2x2x2 FMAs).
	blk := make([]fp.Bits, 3)
	fp.DotFMABlock(env, blk, out[5], a4[:2], x6, 2)
	out = append(out, blk...)
	grid := make([]fp.Bits, 4)
	fp.GemmFMA(env, grid, b3[:2], a4, b4, 2, 2, 2)
	out = append(out, grid...)
	return out
}

// streamOps is the dynamic operation count of runStream
// (7+5+1+4+6+3+1+3+0+1 + 6 block + 8 grid).
const streamOps = 45

// sweepModuli are the persistent-fault periods the sweeps cover: every
// operation struck (1), periods shorter and longer than the stream's
// batches (2, 8, 13), and one longer than the whole stream.
var sweepModuli = []uint64{1, 2, 8, 13, streamOps + 2}

// sweepFaults enumerates the fault shapes the equivalence tests sweep:
// every index through (and past) the stream, result and operand targets,
// any-kind and per-kind matching, and persistent modulo faults of every
// period in sweepModuli for every kind and target.
func sweepFaults() []OpFault {
	var faults []OpFault
	for idx := uint64(0); idx <= streamOps+2; idx++ {
		faults = append(faults,
			OpFault{AnyKind: true, Index: idx, Bit: int(idx) % 16, Target: TargetResult},
			OpFault{AnyKind: true, Index: idx, Bit: 14, Target: TargetOperand, OperandIdx: int(idx) % 3},
			OpFault{Kind: fp.OpFMA, Index: idx, Bit: 9, Target: TargetResult},
			OpFault{Kind: fp.OpAdd, Index: idx, Bit: 5, Target: TargetOperand, OperandIdx: 1},
			OpFault{Kind: fp.OpMul, Index: idx, Bit: 3, Target: TargetResult},
		)
	}
	for _, mod := range sweepModuli {
		faults = append(faults, persistentFaults(mod)...)
	}
	faults = append(faults, OpFault{AnyKind: true, Index: 4, Bit: 1, Target: TargetIntState})
	return faults
}

// persistentFaults returns modulo-mod faults for every kind filter (FMA,
// Add, Mul, any), on the result and on every operand of the kind (for
// FMA and any-kind, the accumulator c too), with the phase Index spread
// over the period and past it (matching takes Index mod Modulo).
func persistentFaults(mod uint64) []OpFault {
	kinds := []struct {
		kind  fp.Op
		any   bool
		arity int
	}{{fp.OpFMA, false, 3}, {fp.OpAdd, false, 2}, {fp.OpMul, false, 2}, {0, true, 3}}
	var faults []OpFault
	for i, k := range kinds {
		base := OpFault{Kind: k.kind, AnyKind: k.any, Index: uint64(3*i) + mod*uint64(i%2), Modulo: mod, Bit: 2 + 3*i}
		res := base
		res.Target = TargetResult
		faults = append(faults, res)
		for op := 0; op < k.arity; op++ {
			opf := base
			opf.Target, opf.OperandIdx = TargetOperand, op
			faults = append(faults, opf)
		}
	}
	return faults
}

// TestBatchInjectionMatchesScalar proves the injector's batch fast path
// is observationally identical to scalar decomposition for every fault
// in the sweep: same outputs, same corruption count, same counters.
func TestBatchInjectionMatchesScalar(t *testing.T) {
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		for _, fault := range sweepFaults() {
			fault := fault
			t.Run(fmt.Sprintf("%v/%+v", f, fault), func(t *testing.T) {
				be := NewEnv(fp.NewMachine(f), fault)
				outBatch := runStream(be, f)
				se := NewEnv(fp.NewMachine(f), fault)
				outScalar := runStream(noBatch{se}, f)

				if len(outBatch) != len(outScalar) {
					t.Fatalf("output lengths differ: %d vs %d", len(outBatch), len(outScalar))
				}
				for i := range outBatch {
					if outBatch[i] != outScalar[i] {
						t.Fatalf("output %d: batch %#x != scalar %#x", i, outBatch[i], outScalar[i])
					}
				}
				if be.Applied() != se.Applied() {
					t.Fatalf("applied: batch %d != scalar %d", be.Applied(), se.Applied())
				}
				if be.all != se.all || be.byKind != se.byKind {
					t.Fatalf("counters diverged: batch all=%d byKind=%v, scalar all=%d byKind=%v",
						be.all, be.byKind, se.all, se.byKind)
				}
			})
		}
	}
}

// TestBatchInjectionReplayMatchesScalar repeats the sweep with the
// fault-free result trace installed, exercising the collapsed replay
// path (a whole unstruck batch served as one or n trace lookups).
func TestBatchInjectionReplayMatchesScalar(t *testing.T) {
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		rec := &traceRec{Env: fp.NewMachine(f)}
		runStream(rec, f) // noBatch semantics: *traceRec has no batch methods
		if len(rec.trace) != streamOps {
			t.Fatalf("%v: trace has %d ops, want %d (update streamOps)", f, len(rec.trace), streamOps)
		}
		for _, fault := range sweepFaults() {
			fault := fault
			t.Run(fmt.Sprintf("%v/%+v", f, fault), func(t *testing.T) {
				be := NewEnv(fp.NewMachine(f), fault)
				be.replay = rec.trace
				outBatch := runStream(be, f)
				se := NewEnv(fp.NewMachine(f), fault)
				outScalar := runStream(noBatch{se}, f)

				for i := range outBatch {
					if outBatch[i] != outScalar[i] {
						t.Fatalf("output %d: replayed batch %#x != scalar %#x", i, outBatch[i], outScalar[i])
					}
				}
				if be.Applied() != se.Applied() {
					t.Fatalf("applied: batch %d != scalar %d", be.Applied(), se.Applied())
				}
			})
		}
	}
}

// runGuarded executes run under exec.Guard and returns its outputs, or
// the emulated DUE that ended it.
func runGuarded(t *testing.T, run func() []fp.Bits) (out []fp.Bits, sig any) {
	t.Helper()
	abort := exec.Guard(func() { out = run() })
	if abort == nil {
		return out, nil
	}
	if _, ok := abort.Value.(dueSignal); !ok {
		t.Fatalf("run died on a non-DUE panic: %v\n%s", abort, abort.Stack)
	}
	return nil, abort.Value
}

// checkSameEnding fails unless a batch and a scalar run ended alike:
// the same emulated DUE (or none), the same outputs, the same
// corruption count and the same operation counters.
func checkSameEnding(t *testing.T, outBatch, outScalar []fp.Bits, sigBatch, sigScalar any, be, se *Env) {
	t.Helper()
	if sigBatch != sigScalar {
		t.Fatalf("DUE: batch %+v != scalar %+v", sigBatch, sigScalar)
	}
	for i := range outScalar {
		if outBatch[i] != outScalar[i] {
			t.Fatalf("output %d: batch %#x != scalar %#x", i, outBatch[i], outScalar[i])
		}
	}
	if be.Applied() != se.Applied() || be.all != se.all || be.byKind != se.byKind {
		t.Fatalf("state diverged: batch applied=%d all=%d byKind=%v, scalar applied=%d all=%d byKind=%v",
			be.Applied(), be.all, be.byKind, se.Applied(), se.all, se.byKind)
	}
}

// TestBatchInjectionDUEMatchesScalar repeats the persistent-fault sweep
// with the behavioral-DUE hooks armed: watchdog budgets that run out
// inside a batch, the NaN/Inf trap on and off, and control faults
// striking mid-stream (an upward loop jump the budget absorbs, one it
// does not, an early loop exit, an aliased operand load). Each gap of
// the strike schedule must stop before the watchdog boundary and the
// control site and a live trap must stay scalar: the batch path ends in
// the same outputs, or in the same emulated crash or hang at the same
// operation, as the scalar path.
func TestBatchInjectionDUEMatchesScalar(t *testing.T) {
	mem := [][]fp.Bits{make([]fp.Bits, 8), make([]fp.Bits, 8)}
	controls := []struct {
		name      string
		cf        ControlFault
		watchdog  float64
		goldenOps uint64
	}{
		// Budgets that run out mid-chain: inside the 3-chain block and
		// inside the 2x2 grid.
		{"watchdog-in-block", ControlFault{}, 1, 34},
		{"watchdog-in-grid", ControlFault{}, 1, 41},
		{"loop-jump-absorbed", ControlFault{Class: LoopControl, Site: 20, Bit: 2}, 4, streamOps},
		{"loop-jump-hang", ControlFault{Class: LoopControl, Site: 20, Bit: 5}, 1, streamOps},
		{"loop-exit", ControlFault{Class: LoopControl, Site: 20, Bit: 3}, 4, streamOps},
		{"index-alias", ControlFault{Class: IndexControl, Site: 17, Bit: 2}, 4, streamOps},
	}
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		rec := &traceRec{Env: fp.NewMachine(f)}
		runStream(rec, f)
		for _, mod := range sweepModuli {
			// The exponent-MSB flip overflows within a few operations, so
			// the armed trap fires mid-stream.
			faults := append(persistentFaults(mod),
				OpFault{AnyKind: true, Index: 1, Modulo: mod, Bit: f.Width() - 2, Target: TargetResult})
			for _, fault := range faults {
				for _, ctl := range controls {
					for _, variant := range []struct{ replay, trap bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
						replay := variant.replay
						spec := FaultSpec{Op: &fault, Watchdog: ctl.watchdog, TrapNonFinite: variant.trap}
						if ctl.cf != (ControlFault{}) {
							spec.Control = &ctl.cf
						}
						t.Run(fmt.Sprintf("%v/%s/%+v/%+v", f, ctl.name, variant, fault), func(t *testing.T) {
							be := NewEnv(fp.NewMachine(f), neverFault)
							be.resetSpec(spec, ctl.goldenOps, mem)
							if replay {
								be.replay = rec.trace
							}
							outBatch, sigBatch := runGuarded(t, func() []fp.Bits { return runStream(be, f) })
							se := NewEnv(fp.NewMachine(f), neverFault)
							se.resetSpec(spec, ctl.goldenOps, mem)
							outScalar, sigScalar := runGuarded(t, func() []fp.Bits { return runStream(noBatch{se}, f) })
							checkSameEnding(t, outBatch, outScalar, sigBatch, sigScalar, be, se)
						})
					}
				}
			}
		}
	}
}

// TestKernelBatchMatchesScalarUnderDUE runs whole kernels — GEMM grids,
// LUD's AXPY updates between scalar divides, CG's chains — through the
// batch path with the replay trace and compiled program installed, and
// through plain scalar decomposition, under persistent faults and under
// control faults of every class, with the watchdog and trap armed or
// not. Both must end in the same output bits or the same emulated DUE,
// with the same counters.
func TestKernelBatchMatchesScalarUnderDUE(t *testing.T) {
	for _, k := range []kernels.Kernel{kernels.NewGEMM(6, 1), kernels.NewLUD(8, 2), kernels.NewCG(5, 3, 4)} {
		for _, f := range []fp.Format{fp.Half, fp.Single} {
			r := NewRunner(k, f, "", nil)
			counts := r.Counts()
			src := rng.New(uint64(f) + 7)
			var specs []FaultSpec
			for i := 0; i < 60; i++ {
				cf := SampleControlFault(src, counts)
				specs = append(specs, FaultSpec{Control: &cf, Watchdog: DefaultWatchdogFactor, TrapNonFinite: i%2 == 0})
			}
			for _, mod := range sweepModuli {
				for _, of := range persistentFaults(mod) {
					specs = append(specs, FaultSpec{Op: &of}, FaultSpec{Op: &of, Watchdog: 1, TrapNonFinite: true})
				}
			}
			run := func(t *testing.T, spec FaultSpec, batch bool) (out []fp.Bits, sig any, e *Env) {
				in := r.art.CopyInputs(nil)
				e = NewEnv(fp.NewMachine(f), neverFault)
				e.resetSpec(spec, counts.Total(), in)
				var env fp.Env = noBatch{e}
				if batch {
					e.replay, e.prog, env = r.art.Results(), r.art.Prog(), e
				}
				out, sig = runGuarded(t, func() []fp.Bits { return k.Run(env, in) })
				return out, sig, e
			}
			for _, spec := range specs {
				t.Run(fmt.Sprintf("%s/%v/%s", k.Name(), f, spec.Desc()), func(t *testing.T) {
					outBatch, sigBatch, be := run(t, spec, true)
					outScalar, sigScalar, se := run(t, spec, false)
					checkSameEnding(t, outBatch, outScalar, sigBatch, sigScalar, be, se)
				})
			}
		}
	}
}
