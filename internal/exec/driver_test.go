package exec

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mixedrel/internal/rng"
)

// draw is the sampler the driver tests classify with: an item's
// outcome is the first value of its stream.
func draw(_ int, r *rng.Rand) uint64 { return r.Uint64() }

func startT(t *testing.T, ctx context.Context, workers int, cp *Checkpoint) *Driver[uint64] {
	t.Helper()
	d, err := Start[uint64](ctx, workers, cp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestSampleSequentialIsSingleStream(t *testing.T) {
	const n, seed = 64, 12345
	r := rng.New(seed)
	got, err := startT(t, nil, 1, nil).Sample(n, seed, draw)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range got {
		if want := r.Uint64(); it.Out != want {
			t.Fatalf("item %d = %d, want %d (single-stream order)", i, it.Out, want)
		}
		if it.Key != i || it.Seed != 0 {
			t.Fatalf("item %d addressed %+v, want key %d and no replay seed", i, it.Job, i)
		}
	}
}

func TestSampleParallelIndependentOfWorkerCount(t *testing.T) {
	const n, seed = 64, 999
	run := func(workers int) []Item[uint64] {
		items, err := startT(t, nil, workers, nil).Sample(n, seed, draw)
		if err != nil {
			t.Fatal(err)
		}
		return items
	}
	a, b := run(2), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample differs at %d: workers=2 gives %+v, workers=8 gives %+v", i, a[i], b[i])
		}
	}
}

// TestSampleResumeStreamDerivation: with a checkpoint or several
// workers, every item's stream is rng.New(SampleSeed(seed, i)) and the
// item reports that seed for replay — the property byte-identical
// resume rests on.
func TestSampleResumeStreamDerivation(t *testing.T) {
	const n, seed = 12, 99
	for _, tc := range []struct {
		workers int
		ck      bool
	}{{1, true}, {3, true}, {3, false}} {
		var cp *Checkpoint
		if tc.ck {
			cp = &Checkpoint{Path: filepath.Join(t.TempDir(), "j")}
		}
		items, err := startT(t, nil, tc.workers, cp).Sample(n, seed, draw)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			s := SampleSeed(seed, i)
			if it.Seed != s || it.Out != rng.New(s).Uint64() {
				t.Errorf("workers=%d checkpoint=%v item %d: seed %#x drew %#x, want seed %#x",
					tc.workers, tc.ck, i, it.Seed, it.Out, s)
			}
		}
	}
}

// TestSampleResumeSkips: journaled items are decoded, not re-run, and
// the items that do run draw the streams they would have had anyway.
func TestSampleResumeSkips(t *testing.T) {
	const n, seed = 10, 7
	path := filepath.Join(t.TempDir(), "j")
	j, err := Checkpoint{Path: path}.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		j.Record(i, uint64(1000+i))
	}
	j.Close()

	var ran [n]bool
	items, err := startT(t, nil, 1, &Checkpoint{Path: path}).Sample(n, seed, func(i int, r *rng.Rand) uint64 {
		ran[i] = true
		return r.Uint64()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if ran[i] != (i%2 == 1) {
			t.Errorf("item %d ran=%v", i, ran[i])
		}
		want := rng.New(SampleSeed(seed, i)).Uint64()
		if i%2 == 0 {
			want = uint64(1000 + i)
		}
		if it.Out != want {
			t.Errorf("item %d = %d, want %d", i, it.Out, want)
		}
	}
}

// TestDriverLimitAcrossRounds: Checkpoint.Limit bounds the new items of
// one invocation across all its rounds; the shortfall is ErrPartial,
// and re-running with the same journal completes the same items.
func TestDriverLimitAcrossRounds(t *testing.T) {
	rounds := [][]Job{
		{{Key: 1, Seed: 11}, {Key: 2, Seed: 12}, {Key: 3, Seed: 13}},
		{{Key: 1 << 32, Seed: 21}, {Key: 1<<32 | 1, Seed: 22}},
	}
	want := make(map[int]uint64)
	for _, jobs := range rounds {
		for _, jb := range jobs {
			want[jb.Key] = rng.New(jb.Seed).Uint64()
		}
	}
	path := filepath.Join(t.TempDir(), "j")
	for attempt := 0; ; attempt++ {
		if attempt > 5 {
			t.Fatal("campaign never completed")
		}
		var ran atomic.Int64
		d := startT(t, nil, 2, &Checkpoint{Path: path, Limit: 2})
		partial := false
		for _, jobs := range rounds {
			items, err := d.Round(jobs, func(i int, r *rng.Rand) uint64 {
				ran.Add(1)
				return r.Uint64()
			})
			if errors.Is(err, ErrPartial) {
				partial = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, it := range items {
				if it.Job != jobs[i] || it.Out != want[it.Key] {
					t.Fatalf("round item %d = %+v, want job %+v drawing %d", i, it, jobs[i], want[it.Key])
				}
			}
		}
		d.Close()
		if n := ran.Load(); n > 2 {
			t.Fatalf("attempt %d classified %d new items, limit 2", attempt, n)
		}
		if !partial {
			return
		}
	}
}

// TestDriverCancelled: a cancelled campaign reports *Interrupted with
// Journaled -1 without a checkpoint and the journal's size with one.
func TestDriverCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		_, err := startT(t, ctx, workers, nil).Sample(8, 1, draw)
		var in *Interrupted
		if !errors.As(err, &in) || in.Journaled != -1 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d uncheckpointed: err = %v, want Interrupted{-1}", workers, err)
		}

		path := filepath.Join(t.TempDir(), "j")
		d := startT(t, nil, workers, &Checkpoint{Path: path, Limit: 3})
		if _, err := d.Sample(8, 1, draw); !errors.Is(err, ErrPartial) {
			t.Fatalf("workers=%d: limited run err = %v, want ErrPartial", workers, err)
		}
		d.Close()
		_, err = startT(t, ctx, workers, &Checkpoint{Path: path}).Round([]Job{{Key: 5}}, draw)
		if !errors.As(err, &in) || in.Journaled != 3 {
			t.Fatalf("workers=%d checkpointed: err = %v, want Interrupted{3}", workers, err)
		}
	}
}

// TestDriverReportsDegradedJournal: a journal whose writes fail for
// good degrades; every item is still classified and Close names the
// failure.
func TestDriverReportsDegradedJournal(t *testing.T) {
	fs := newFakeFS()
	fs.failWrites = 1000
	d := startT(t, nil, 2, &Checkpoint{Path: "j", Every: 1, Retries: -1, FS: fs})
	items, err := d.Sample(16, 3, draw)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Out != rng.New(SampleSeed(3, i)).Uint64() {
			t.Fatalf("item %d misclassified under a degraded journal", i)
		}
	}
	if err := d.Close(); !errors.Is(err, errScripted) {
		t.Fatalf("Close = %v, want the scripted failure", err)
	}
}
