package inject

import "mixedrel/internal/fp"

// The injecting environment implements fp.BatchEnv so that the bulk of a
// faulty run — every operation neither the fault nor an armed
// behavioral-DUE hook can reach — moves at the inner machine's batch
// speed while remaining observationally identical to the scalar path.
// Every batch method runs a strike schedule over its operations:
//
//   - span computes the gap before the next event: the next struck
//     operation (for a persistent modulo fault, the next counter
//     ≡ Index mod Modulo), the watchdog boundary, or the control-fault
//     site;
//   - a gap advances the counters in one step, and its results are
//     either served from the fault-free replay trace (before any
//     corruption: every operand is still bit-identical to the recorded
//     run, so a DotFMA gap collapses into ONE trace lookup), served by
//     the compiled trace program's compare-serving, or computed through
//     the inner environment's own batch fast path;
//   - the operation at the end of a gap runs through the scalar method,
//     which performs the exact per-operation matching, corruption, DUE
//     hooks and counter bookkeeping.
//
// A batch the fault cannot reach is one bulk call, a batch holding one
// point strike is bulk–scalar–bulk, and a persistent fault costs one
// scalar operation per Modulo operations instead of decomposing every
// batch it touches. After an early loop exit (skip mode) a gap passes
// its operands through in bulk, exactly as each skipped scalar
// operation would. A pending aliased operand and a live NaN/Inf trap
// change the next or every operation's semantics, so under them the
// span is zero and the batch runs scalar. TargetIntState faults never
// strike arithmetic (they fire inside IntDecision), so for them every
// batch is one gap.

// span returns how many of the next n dynamic operations of the given
// kind can run in bulk — none struck by the fault, none at which an
// armed behavioral-DUE hook could fire — capped at n. Zero means the
// next operation must run through the scalar method. A short span only
// costs speed; a long one would skip a corruption or a detector, so
// every bound is exact or errs short.
//mixedrelvet:hotpath strike schedule, once per batch gap
func (e *Env) span(kind fp.Op, n uint64) uint64 {
	if e.due {
		n = e.dueSpan(n)
	}
	if n == 0 || (e.fault.Target != TargetOperand && e.fault.Target != TargetResult) {
		return n
	}
	ctr := e.all
	if !e.fault.AnyKind {
		if kind != e.fault.Kind {
			return n
		}
		ctr = e.byKind[kind]
	}
	switch m := e.fault.Modulo; {
	case m == 1:
		return 0
	case m > 1:
		// Offset of the next counter value ≡ Index (mod m).
		return min(n, (e.fault.Index%m+m-ctr%m)%m)
	case e.fault.Index >= ctr:
		return min(n, e.fault.Index-ctr)
	}
	return n
}

// dueSpan caps n at the operations before the next point where an
// armed behavioral-DUE hook could fire: a pending aliased operand
// (which the struck operation normally consumes itself) changes the
// next operation's semantics, the watchdog trips on the
// operation that exceeds the budget, the control fault strikes at its
// site, and a live trap (a non-finite result anywhere must fault at its
// exact operation) keeps every operation scalar.
func (e *Env) dueSpan(n uint64) uint64 {
	if e.ctlPending || (e.trap && (e.applied != 0 || e.trapAll)) {
		return 0
	}
	if e.budget > 0 {
		if e.all >= e.budget {
			return 0
		}
		n = min(n, e.budget-e.all)
	}
	if e.ctlArmed && e.ctl.Site >= e.all {
		n = min(n, e.ctl.Site-e.all)
	}
	return n
}

// advance moves the operation counters past n operations of one kind.
func (e *Env) advance(kind fp.Op, n uint64) {
	e.all += n
	e.byKind[kind] += n
}

// replayable reports whether a just-advanced gap can be served from the
// fault-free result trace — same condition as the scalar replayed():
// trace long enough, nothing corrupted yet. The caller guarantees (via
// span) that no operation of the gap is struck.
func (e *Env) replayable() bool {
	return e.applied == 0 && uint64(len(e.replay)) >= e.all
}

// compiled reports whether a just-advanced gap — missed by replayable —
// may try the compiled trace program's compare-serving. No operation
// in a gap is struck and no behavioral-DUE hook can fire inside it
// (span); compare-serving then answers each operation from the trace
// exactly when its recorded operands match the live ones, which is the
// post-fault cone partition: compares miss precisely on the
// fault-dependent operations, and only those recompute through the
// inner machine.
func (e *Env) compiled() bool {
	return e.prog != nil
}

// DotFMA implements fp.BatchEnv.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) DotFMA(acc fp.Bits, a, b []fp.Bits) fp.Bits {
	for len(a) > 0 {
		g := e.span(fp.OpFMA, uint64(len(a)))
		if g == 0 {
			acc = e.FMA(a[0], b[0], acc)
			g = 1
		} else {
			acc = e.dotGap(acc, a[:g], b[:g])
		}
		a, b = a[g:], b[g:]
	}
	return acc
}

// dotGap bulk-executes a chain gap of len(a) unstruck FMAs.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) dotGap(acc fp.Bits, a, b []fp.Bits) fp.Bits {
	n := uint64(len(a))
	e.advance(fp.OpFMA, n)
	if e.skip {
		// Every skipped FMA passes its accumulator through.
		return acc
	}
	if e.replayable() {
		// Only the final accumulator leaves the gap, so the whole gap
		// is one lookup of the last recorded result.
		e.statReplayed += n
		return e.replay[e.all-1]
	}
	if e.compiled() {
		// Serve the longest operand-matching prefix of a whole recorded
		// chain and recompute only the suffix the fault's cone reaches.
		res, served := e.prog.ChainPrefix(&e.cur, e.all-n, acc, a, b)
		e.statServed += uint64(served)
		if served == int(n) {
			return res
		}
		if served > 0 {
			return fp.DotFMA(e.inner, res, a[served:], b[served:])
		}
	}
	return fp.DotFMA(e.inner, acc, a, b)
}

// AddN implements fp.BatchEnv.
func (e *Env) AddN(dst, a, b []fp.Bits) { e.mapN(fp.OpAdd, dst, a, b, nil) }

// MulN implements fp.BatchEnv.
func (e *Env) MulN(dst, a, b []fp.Bits) { e.mapN(fp.OpMul, dst, a, b, nil) }

// FMAN implements fp.BatchEnv.
func (e *Env) FMAN(dst, a, b, c []fp.Bits) { e.mapN(fp.OpFMA, dst, a, b, c) }

// mapN runs an element-wise batch — AddN or MulN when c is nil, FMAN
// otherwise — through the strike schedule.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) mapN(op fp.Op, dst, a, b, c []fp.Bits) {
	for len(a) > 0 {
		g := e.span(op, uint64(len(a)))
		if g == 0 {
			switch op {
			case fp.OpAdd:
				dst[0] = e.Add(a[0], b[0])
			case fp.OpMul:
				dst[0] = e.Mul(a[0], b[0])
			default:
				dst[0] = e.FMA(a[0], b[0], c[0])
			}
			g = 1
		} else if c == nil {
			e.mapGap(op, dst[:g], a[:g], b[:g], nil)
		} else {
			e.mapGap(op, dst[:g], a[:g], b[:g], c[:g])
		}
		dst, a, b = dst[g:], a[g:], b[g:]
		if c != nil {
			c = c[g:]
		}
	}
}

// mapGap bulk-executes an element-wise gap of len(a) unstruck
// operations.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) mapGap(op fp.Op, dst, a, b, c []fp.Bits) {
	n := uint64(len(a))
	e.advance(op, n)
	if e.skip {
		// Skipped operations pass their designated operand through:
		// the first for Add and Mul, the accumulator for FMA.
		if c == nil {
			copy(dst, a)
		} else {
			copy(dst, c)
		}
		return
	}
	if e.replayable() {
		copy(dst, e.replay[e.all-n:e.all])
		e.statReplayed += n
		return
	}
	lo, hi := 0, len(a)
	if e.compiled() {
		// ServeMap leaves dst's dirty interval untouched, so when dst
		// aliases c the recompute below still reads pristine addends.
		if l, h, ok := e.prog.ServeMap(&e.cur, e.all-n, op, dst, a, b, c); ok {
			e.statServed += n - uint64(h-l)
			lo, hi = l, h
		}
	}
	if lo >= hi {
		return
	}
	switch op {
	case fp.OpAdd:
		fp.AddN(e.inner, dst[lo:hi], a[lo:hi], b[lo:hi])
	case fp.OpMul:
		fp.MulN(e.inner, dst[lo:hi], a[lo:hi], b[lo:hi])
	default:
		fp.FMAN(e.inner, dst[lo:hi], a[lo:hi], b[lo:hi], c[lo:hi])
	}
}

// DotFMABlock implements fp.BatchEnv by running the chains in order,
// each through DotFMA's own strike schedule — the block shape adds no
// new fault semantics beyond its member chains.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) DotFMABlock(out []fp.Bits, acc fp.Bits, u, v []fp.Bits, stride int) {
	for t := range out {
		out[t] = e.DotFMA(acc, u, v[t*stride:t*stride+len(u)])
	}
}

// GemmFMA implements fp.BatchEnv. The strike schedule runs at chain
// granularity: the chains wholly before the next event (span) bulk-serve
// together through gemmChains, and the chain holding the event runs
// through DotFMA's own schedule. A grid the fault cannot reach is one
// bulk call; a point strike costs its chain's scalar operation plus two
// bulk calls, not rows*cols chain dispatches; a persistent fault whose
// Modulo is below k strikes every chain, each of which then runs its
// gaps in bulk and only its struck operations scalar.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) GemmFMA(out, accs, a, bt []fp.Bits, rows, cols, k int) {
	chains := rows * cols
	kk := uint64(k)
	if chains == 0 || kk == 0 {
		return
	}
	for t := 0; t < chains; {
		c := t + int(e.span(fp.OpFMA, uint64(chains-t)*kk)/kk)
		e.gemmChains(out, accs, a, bt, rows, cols, k, t, c)
		if c == chains {
			return
		}
		i, j := c/cols, c%cols
		var acc fp.Bits
		if accs != nil {
			acc = accs[i]
		} else {
			acc = e.FromFloat64(0)
		}
		out[c] = e.DotFMA(acc, a[i*k:(i+1)*k], bt[j*k:j*k+k])
		t = c + 1
	}
}

// gemmChains bulk-executes the grid's chains [first, limit): the
// counters advance in one step, and the chains are served from the
// replay trace (one lookup per chain), from the compiled program (one
// slab compare resolves the fault's dirty rows/columns; clean chains
// serve from the trace, dirty ones recompute), or recomputed through
// the inner environment. The caller guarantees — via span over a
// window covering the range — that no strike or DUE hook fires within
// these chains.
func (e *Env) gemmChains(out, accs, a, bt []fp.Bits, rows, cols, k, first, limit int) {
	if first >= limit {
		return
	}
	n := uint64(limit-first) * uint64(k)
	e.advance(fp.OpFMA, n)
	pos := e.all - n
	if e.skip {
		// Every skipped chain keeps its initial accumulator.
		zero := e.FromFloat64(0)
		for t := first; t < limit; t++ {
			out[t] = zero
			if accs != nil {
				out[t] = accs[t/cols]
			}
		}
		return
	}
	if e.replayable() {
		// Only final accumulators leave the chains: absolute chain t
		// ends at stream position pos + (t-first+1)*k - 1.
		for t := first; t < limit; t++ {
			out[t] = e.replay[pos+uint64((t-first+1)*k)-1]
		}
		e.statReplayed += n
		return
	}
	if e.compiled() && e.prog.ServeGemm(&e.cur, pos, out, accs, a, bt, rows, cols, k, first, limit, e.inner) {
		// Slab-granular: the program resolved the whole range, serving
		// clean chains and recomputing dirty ones internally, so the
		// serve counter attributes the full window to the slab path.
		e.statServed += n
		return
	}
	if first == 0 && limit == rows*cols {
		// Whole grid: keep the inner machine's decode-once fast path.
		fp.GemmFMA(e.inner, out, accs, a, bt, rows, cols, k)
		return
	}
	zero := e.FromFloat64(0)
	for t := first; t < limit; t++ {
		i, j := t/cols, t%cols
		acc := zero
		if accs != nil {
			acc = accs[i]
		}
		out[t] = fp.DotFMA(e.inner, acc, a[i*k:(i+1)*k], bt[j*k:j*k+k])
	}
}

// AXPY implements fp.BatchEnv.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) AXPY(dst []fp.Bits, s fp.Bits, x []fp.Bits) {
	for len(x) > 0 {
		g := e.span(fp.OpFMA, uint64(len(x)))
		if g == 0 {
			dst[0] = e.FMA(s, x[0], dst[0])
			g = 1
		} else {
			e.axpyGap(dst[:g], s, x[:g])
		}
		dst, x = dst[g:], x[g:]
	}
}

// axpyGap bulk-executes an AXPY gap of len(x) unstruck FMAs.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) axpyGap(dst []fp.Bits, s fp.Bits, x []fp.Bits) {
	n := uint64(len(x))
	e.advance(fp.OpFMA, n)
	if e.skip {
		// Every skipped FMA passes its accumulator, dst[i], through.
		return
	}
	if e.replayable() {
		copy(dst, e.replay[e.all-n:e.all])
		e.statReplayed += n
		return
	}
	if e.compiled() {
		// The dirty interval keeps its pristine accumulator inputs in
		// dst; only those elements recompute.
		if lo, hi, ok := e.prog.ServeAxpy(&e.cur, e.all-n, s, x, dst); ok {
			e.statServed += n - uint64(hi-lo)
			if lo < hi {
				fp.AXPY(e.inner, dst[lo:hi], s, x[lo:hi])
			}
			return
		}
	}
	fp.AXPY(e.inner, dst, s, x)
}
