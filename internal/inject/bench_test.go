package inject

import (
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

// Injector rungs of the layer ladder for the two fault configurations
// whose cost the strike schedule and stack-free DUE aborts target. Run
// them with make bench-faults.

// BenchmarkInjectorPersistentDot is the injector-op rung of the
// persistent (FPGA configuration-memory) fault configuration: one
// conv-shaped chain grid — MNIST's second convolution, 8 output
// channels × 64 pixels × 100-element patches — under a modulo-13 FMA
// result fault, 13 being the FPGA MNIST design's unroll factor.
func BenchmarkInjectorPersistentDot(b *testing.B) {
	const rows, cols, k = 8, 64, 100
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		b.Run(f.String(), func(b *testing.B) {
			operands := func(n, salt int) []fp.Bits {
				out := make([]fp.Bits, n)
				for i := range out {
					out[i] = f.FromFloat64(float64((i*7+salt)%23)/32 - 0.3)
				}
				return out
			}
			w, col, accs := operands(rows*k, 1), operands(cols*k, 2), operands(rows, 3)
			out := make([]fp.Bits, rows*cols)
			fault := OpFault{Kind: fp.OpFMA, Index: 5, Modulo: 13, Bit: 3, Target: TargetResult}
			e := NewEnv(fp.NewMachine(f), fault)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.reset(&fault)
				fp.GemmFMA(e, out, accs, w, col, rows, cols, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*cols*k), "ns/fma")
		})
	}
}

// BenchmarkInjectorControlCrash is the sample rung of the control-fault
// configuration: one LUD n=48 single-precision sample whose corrupted
// index leaves the mapped footprint half-way through the run, an
// emulated segfault that exec.Guard recovers and the runner classifies
// as a crash DUE.
func BenchmarkInjectorControlCrash(b *testing.B) {
	r := NewRunner(kernels.NewLUD(48, 1), fp.Single, "", nil)
	cf := ControlFault{Class: IndexControl, Site: r.Counts().Total() / 2, Bit: 31}
	spec := FaultSpec{Control: &cf, Watchdog: DefaultWatchdogFactor}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rr, abort := r.RunSpec(spec, false); abort != nil || rr.Outcome != CrashDUE {
			b.Fatalf("sample: %+v, abort %v; want crash-DUE", rr, abort)
		}
	}
}
