package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"mixedrel/internal/rng"
)

// Driver is the one campaign driver. Beam experiments, uniform
// injection campaigns and the rounds of stratified campaigns all run
// their samples through it; the campaigns keep only fault sampling and
// outcome tallying. The driver owns the rest:
//
//   - Stream choice. Sample threads one stream through all items when
//     the campaign has no checkpoint and workers <= 1 (the historical
//     sequential sampling). Otherwise item i gets the stream seeded by
//     the i-th draw of a master stream, so it depends only on
//     (seed, i). Round runs caller-addressed jobs, each on its own
//     stream.
//   - The journal. A checkpointed campaign's journal is opened once, by
//     Start, and stays open across rounds. Journaled items are replayed
//     instead of re-run; new ones are recorded.
//   - Stopping. Checkpoint.Limit bounds how many new items one
//     invocation classifies (ErrPartial), cancellation drains in-flight
//     items and returns *Interrupted, and Close reports a degraded
//     journal.
//
// T is the per-item outcome. Its JSON encoding is the journal record,
// so it must round-trip exactly; it is encoded only when the campaign
// has a checkpoint.
type Driver[T any] struct {
	ctx     context.Context
	workers int
	journal *Journal // nil: no checkpoint
	limit   int64
	// ran counts new items classified under the journal, across
	// rounds: the Checkpoint.Limit budget.
	ran atomic.Int64
}

// Job addresses one item: Key names it in the journal and in replay
// diagnostics, Seed seeds its private random stream.
type Job struct {
	Key  int
	Seed uint64
}

// Item is one classified item. Its Seed replays it alone
// (rng.New(Seed) reproduces its draws), except in single-stream mode,
// where Seed is 0 and replay means re-running the campaign.
type Item[T any] struct {
	Job
	Out T
}

// Start prepares a campaign under ctx (nil: not cancellable) on up to
// workers goroutines, opening cp's journal when cp is non-nil. Close
// the driver when the campaign is done.
func Start[T any](ctx context.Context, workers int, cp *Checkpoint) (*Driver[T], error) {
	d := &Driver[T]{ctx: ctx, workers: workers}
	if cp != nil {
		j, err := cp.Open()
		if err != nil {
			return nil, err
		}
		d.journal, d.limit = j, int64(cp.Limit)
	}
	return d, nil
}

// Sample runs a uniform campaign of n items drawn from seed: fn draws
// item i's fault from r and classifies it. Items come back in index
// order, keyed by index.
func (d *Driver[T]) Sample(n int, seed uint64, fn func(i int, r *rng.Rand) T) ([]Item[T], error) {
	items := make([]Item[T], n)
	var single *rng.Rand
	var got []bool
	var job func(i int) error
	if d.journal == nil && d.workers <= 1 {
		single = rng.New(seed)
	} else {
		master := rng.New(seed)
		for i := range items {
			items[i].Job = Job{Key: i, Seed: master.Uint64()}
		}
		got, job = d.job(items, fn)
		if d.workers > 1 {
			return items, d.finish(forEach(d.ctx, d.workers, n, job), got)
		}
	}
	// Sequential campaigns run here, in order on the caller, outside
	// the pool's exec_jobs accounting.
	var done <-chan struct{}
	if d.ctx != nil {
		done = d.ctx.Done()
	}
	for i := range items {
		if cancelled(done) {
			mCancelledJobs.Add(uint64(n - i))
			return nil, d.stop(d.ctx.Err())
		}
		if single != nil {
			items[i] = Item[T]{Job: Job{Key: i}, Out: fn(i, single)}
		} else if err := job(i); err != nil {
			return nil, d.finish(err, got)
		}
	}
	return items, d.finish(nil, got)
}

// Round runs one round of caller-addressed jobs on the bounded pool:
// fn classifies jobs[i] from its stream. Items come back in job order.
func (d *Driver[T]) Round(jobs []Job, fn func(i int, r *rng.Rand) T) ([]Item[T], error) {
	items := make([]Item[T], len(jobs))
	for i, jb := range jobs {
		items[i].Job = jb
	}
	got, job := d.job(items, fn)
	return items, d.finish(forEach(d.ctx, d.workers, len(items), job), got)
}

// Close flushes, syncs and closes the journal (a no-op without a
// checkpoint; safe to call again). It returns the persistent I/O
// failure that degraded the journal, if any: the campaign's items are
// complete, but checkpointing stopped part-way.
func (d *Driver[T]) Close() error {
	if d.journal == nil {
		return nil
	}
	d.journal.Close()
	if deg, err := d.journal.Degraded(); deg {
		return err
	}
	return nil
}

// job returns the task that classifies items[i] in place from its own
// stream: a journaled item is decoded, any other runs fn and is
// journaled. got, nil without a journal, marks the items classified.
func (d *Driver[T]) job(items []Item[T], fn func(i int, r *rng.Rand) T) (got []bool, job func(i int) error) {
	if d.journal != nil {
		got = make([]bool, len(items))
	}
	return got, func(i int) error {
		it := &items[i]
		if d.journal != nil {
			if raw, ok := d.journal.Done(it.Key); ok {
				if err := json.Unmarshal(raw, &it.Out); err != nil {
					return fmt.Errorf("exec: corrupt checkpoint record %d: %w", it.Key, err)
				}
				got[i] = true
				return nil
			}
			if d.limit > 0 && d.ran.Add(1) > d.limit {
				return nil // deterministic interruption: a resume fills it in
			}
		}
		it.Out = fn(i, rng.New(it.Seed))
		if d.journal == nil {
			return nil
		}
		got[i] = true
		return d.journal.Record(it.Key, it.Out)
	}
}

// finish maps the scheduler's error and the classified marks to the
// campaign's: *Interrupted, ErrPartial when Limit left items
// unclassified, or nil.
func (d *Driver[T]) finish(err error, got []bool) error {
	if err != nil {
		return d.stop(err)
	}
	for _, ok := range got {
		if !ok {
			return ErrPartial
		}
	}
	return nil
}

// stop turns a context cancellation into *Interrupted. In-flight items
// drained before it returns, so closing the journal here leaves it
// whole and synced, and the journaled count is an honest resume point.
func (d *Driver[T]) stop(err error) error {
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	journaled := -1
	if d.journal != nil {
		d.journal.Close()
		journaled = d.journal.Len()
		if deg, _ := d.journal.Degraded(); deg {
			journaled = 0 // nothing past the last durable flush is promised
		}
	}
	return &Interrupted{Journaled: journaled, Cause: err}
}
