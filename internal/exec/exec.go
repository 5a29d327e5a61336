// Package exec is the campaign execution engine: a shared bounded
// scheduler for cross-configuration parallelism, the one campaign
// driver every sampling campaign runs through, crash-tolerant
// checkpoint journals, and a process-wide memo cache of fault-free
// campaign artifacts (golden outputs, operation profiles, pristine
// encoded inputs).
//
// Determinism is the organizing constraint. Every parallel construct in
// this package is designed so that results are bitwise-identical to the
// sequential order of the same work:
//
//   - ForEach runs index-addressed jobs; callers store job i's result in
//     slot i, so assembly order never depends on scheduling.
//   - Driver derives each sample's random stream from the campaign seed
//     alone, never from goroutine interleaving. An uncheckpointed
//     campaign with workers <= 1 threads one stream through all samples
//     (the historical sequential sampling); otherwise sample i gets the
//     stream seeded by the i-th draw of a master stream, and stratified
//     rounds address their streams by (seed, stratum, index). The mode
//     depends only on the workers parameter and the checkpoint, never
//     on pool occupancy, so a given configuration always produces the
//     same sample — and a checkpointed one resumes byte-identically.
//
// The scheduler is a single process-wide token pool rather than
// per-call-site worker counts, so nested fan-out (experiments over
// configurations over trials) cannot multiply into unbounded goroutines:
// a worker that cannot get a token simply runs jobs inline on its own
// goroutine.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	poolMu   sync.Mutex
	poolSize = runtime.GOMAXPROCS(0)
	// tokens gates helper goroutines across every concurrent ForEach in
	// the process. Capacity is poolSize-1: the caller's goroutine always
	// counts as one worker, so total parallelism stays <= poolSize.
	tokens = make(chan struct{}, helperCap(runtime.GOMAXPROCS(0)))
)

func helperCap(n int) int {
	if n < 1 {
		return 0
	}
	return n - 1
}

// MaxWorkers returns the process-wide parallelism bound.
func MaxWorkers() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolSize
}

// SetMaxWorkers bounds total parallelism across all concurrent ForEach
// calls to n goroutines (minimum 1, i.e. fully sequential). It replaces
// the token pool, so it should be called at startup or between runs, not
// while work is in flight (in-flight helpers drain against the pool they
// were acquired from).
func SetMaxWorkers(n int) {
	if n < 1 {
		n = 1
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	poolSize = n
	tokens = make(chan struct{}, helperCap(n))
}

// acquireToken claims one helper slot if any is free. It returns the
// pool the token must be released to (the pool may be swapped by
// SetMaxWorkers between acquire and release).
func acquireToken() (chan struct{}, bool) {
	poolMu.Lock()
	t := tokens
	poolMu.Unlock()
	select {
	case t <- struct{}{}:
		return t, true
	default:
		mHelpersDenied.Inc()
		return nil, false
	}
}

// ForEach runs fn(0..n-1), using up to workers goroutines (the caller
// plus up to workers-1 helpers, subject to the process-wide token pool).
// workers <= 1 runs inline. On error, remaining unstarted jobs are
// cancelled (in-flight jobs run to completion) and the lowest-indexed
// error among jobs that ran is returned. fn must be safe for concurrent
// invocation when workers > 1.
func ForEach(workers, n int, fn func(i int) error) error {
	return forEach(nil, workers, n, fn)
}

// ForEachCtx is ForEach under a context: once ctx is done, no new job
// starts — in-flight jobs drain to completion, so every job either ran
// fully or not at all — and ctx.Err() is returned (job errors that
// happened before cancellation win). A nil ctx is ForEach. The
// cancellation check is a non-blocking channel read per job dispatch,
// nothing per-operation, so campaigns pay for cancellability only at
// sample granularity.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return forEach(ctx, workers, n, fn)
}

// cancelled is the non-blocking poll of a context's done channel.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ran := 0
		for i := 0; i < n; i++ {
			if cancelled(done) {
				mJobs.Add(uint64(ran))
				mCancelledJobs.Add(uint64(n - i))
				return ctx.Err()
			}
			ran++
			if err := fn(i); err != nil {
				mJobs.Add(uint64(ran))
				return err
			}
		}
		mJobs.Add(uint64(ran))
		return nil
	}

	var (
		next     atomic.Int64
		ranTotal atomic.Int64
		stop     atomic.Bool
		ctxStop  atomic.Bool
		errMu    sync.Mutex
		errIdx   = n
		firstErr error
	)
	next.Store(-1)
	worker := func() {
		// Job counting is batched per worker: one atomic add at exit
		// instead of one per job, so instrumentation cost stays off the
		// per-sample path.
		ran := 0
		defer func() {
			mJobs.Add(uint64(ran))
			ranTotal.Add(int64(ran))
		}()
		for !stop.Load() {
			if cancelled(done) {
				ctxStop.Store(true)
				stop.Store(true)
				return
			}
			i := int(next.Add(1))
			if i >= n {
				return
			}
			ran++
			if err := fn(i); err != nil {
				errMu.Lock()
				if i < errIdx {
					errIdx, firstErr = i, err
				}
				errMu.Unlock()
				stop.Store(true)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for h := 0; h < workers-1; h++ {
		pool, ok := acquireToken()
		if !ok {
			break // pool exhausted: the caller still runs everything
		}
		wg.Add(1)
		mHelpers.Add(1)
		go func() {
			defer func() {
				mHelpers.Add(-1)
				<-pool
				wg.Done()
			}()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if ctxStop.Load() {
		if skipped := int64(n) - ranTotal.Load(); skipped > 0 {
			mCancelledJobs.Add(uint64(skipped))
		}
		return ctx.Err()
	}
	return nil
}
