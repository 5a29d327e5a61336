package exec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mixedrel/internal/rng"
	"mixedrel/internal/telemetry"
)

// ErrPartial reports that a checkpointed campaign stopped before every
// sample was classified (an interruption, or a Checkpoint.Limit bound).
// Re-running the same campaign with the same checkpoint path resumes
// from the journal and — once all samples are present — produces a
// result byte-identical to an uninterrupted run.
var ErrPartial = errors.New("exec: campaign incomplete; re-run with the same checkpoint to resume")

// ErrInterrupted is the errors.Is target of *Interrupted: a campaign
// stopped by context cancellation after a graceful drain.
var ErrInterrupted = errors.New("exec: campaign interrupted")

// Interrupted reports a campaign that was cancelled (context done)
// after a graceful drain: in-flight samples finished, the checkpoint
// journal — when there was one — was flushed and synced, and nothing
// was left half-written. errors.Is(err, ErrInterrupted) matches it.
type Interrupted struct {
	// Journaled is the number of classified samples safely in the
	// journal at interruption, or -1 when the campaign had no
	// checkpoint (nothing to resume from).
	Journaled int
	// Cause is the context error that stopped the campaign
	// (context.Canceled or context.DeadlineExceeded).
	Cause error
}

func (e *Interrupted) Error() string {
	if e.Journaled < 0 {
		return fmt.Sprintf("exec: campaign interrupted (%v); no checkpoint to resume from", e.Cause)
	}
	return fmt.Sprintf("exec: campaign interrupted (%v); %d samples journaled, re-run with the same checkpoint to resume", e.Cause, e.Journaled)
}

func (e *Interrupted) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrInterrupted) true for any *Interrupted.
func (e *Interrupted) Is(target error) bool { return target == ErrInterrupted }

// DefaultRetries and DefaultRetryBackoff are the journal's transient
// I/O failure policy: a failed flush/sync is retried this many times,
// sleeping backoff, 2*backoff, 4*backoff ... between attempts, before
// the journal declares the failure persistent and degrades.
const (
	DefaultRetries      = 3
	DefaultRetryBackoff = 5 * time.Millisecond
)

// Checkpoint configures crash-tolerant, resumable campaign execution.
// A checkpointed campaign writes each classified sample to an
// append-only JSONL journal at Path; a later run with the same
// configuration skips journaled samples and fills in only the missing
// ones. Because every sample's random stream is derived from
// (seed, index) alone — never from which samples already ran — the
// final aggregate is byte-identical whether the campaign ran in one
// pass or was interrupted and resumed arbitrarily many times.
//
// Journal I/O failures are survivable: transient errors are retried
// with bounded backoff, and persistent failure (ENOSPC, a dead disk)
// flips the journal into degraded mode — checkpointing stops, loudly
// (telemetry counters, Journal.Degraded, the campaign result's
// CheckpointDegraded flag), but the campaign itself completes in
// memory rather than aborting.
type Checkpoint struct {
	// Path is the journal file. It is created on first use and appended
	// to on resume; delete it to restart a campaign from scratch.
	Path string
	// Every is the flush-and-sync cadence in samples (default 64). A
	// crash loses at most the unsynced tail; a torn final line is
	// detected and ignored on reload.
	Every int
	// Limit, when positive, bounds how many NEW samples this invocation
	// classifies before returning ErrPartial — a deterministic
	// interruption point, used by resume tests and incremental runs.
	Limit int
	// Retries bounds how many times a failed journal flush/sync is
	// retried before the journal degrades (0 = DefaultRetries;
	// negative = no retries).
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling on
	// each subsequent attempt (0 = DefaultRetryBackoff; negative = no
	// sleep, for harnesses that inject persistent failures on purpose).
	RetryBackoff time.Duration
	// FS overrides the filesystem the journal talks to (nil = the real
	// one). The only non-OS implementation is internal/chaos's
	// fault-injecting layer; the chaos analyzer keeps it out of
	// production binaries.
	FS FS
}

func (c Checkpoint) fs() FS {
	if c.FS != nil {
		return c.FS
	}
	return osFS{}
}

// Open loads the journal at c.Path (tolerating a torn tail line from a
// crashed writer) and opens it for appending. When damaged lines are
// found, the journal is first compacted: the surviving records are
// rewritten to a scratch file which is renamed over the original, so
// repeated crashes cannot accrete garbage. Compaction is best-effort —
// on any error the original journal is appended to as-is (damaged
// lines are skipped on every load anyway).
func (c Checkpoint) Open() (*Journal, error) {
	if c.Path == "" {
		return nil, fmt.Errorf("exec: checkpoint with empty path")
	}
	every := c.Every
	if every <= 0 {
		every = 64
	}
	retries := c.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	backoff := c.RetryBackoff
	switch {
	case backoff == 0:
		backoff = DefaultRetryBackoff
	case backoff < 0:
		backoff = 0
	}
	fsys := c.fs()
	if dir := filepath.Dir(c.Path); dir != "." {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	j := &Journal{
		fs: fsys, path: c.Path,
		done:    make(map[int]json.RawMessage),
		every:   every,
		retries: retries, backoff: backoff,
		sleep: time.Sleep,
	}
	data, err := fsys.ReadFile(c.Path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	damaged := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var jl journalLine
		if json.Unmarshal(line, &jl) != nil {
			// A torn line from a crash mid-write: the sample it would
			// have recorded simply re-runs on resume.
			damaged++
			continue
		}
		j.done[jl.I] = jl.V
	}
	compacted := false
	if damaged > 0 {
		compacted = j.compact()
	}
	f, err := fsys.OpenAppend(c.Path)
	if err != nil {
		return nil, err
	}
	j.f = f
	if !compacted && len(data) > 0 && data[len(data)-1] != '\n' {
		// A torn tail without a newline: terminate it on the first
		// flush so appended records start on their own line instead of
		// merging into the damaged one.
		j.needTerm = true
	}
	return j, nil
}

// journalLine is one journal record: sample index plus its encoded
// classified outcome.
type journalLine struct {
	I int             `json:"i"`
	V json.RawMessage `json:"v"`
}

// Journal is an append-only JSONL record of classified samples. It is
// safe for concurrent Record calls from campaign workers.
//
// I/O failure semantics: Record and Close never fail the campaign on
// I/O errors. A failed flush/sync is retried (bounded, with backoff);
// if the failure is persistent the journal degrades — the file handle
// is abandoned, subsequent records stay in memory only, and Degraded
// reports the state so campaigns can surface it. Degradation trades
// resumability for completion: the in-flight campaign still finishes
// and aggregates correctly, it just cannot crash-resume past the last
// durable record.
type Journal struct {
	mu   sync.Mutex
	fs   FS
	path string
	f    File
	// buf accumulates encoded lines between flushes; needTerm records
	// that the file may end mid-line (a torn tail from a crashed writer
	// or a short write), so the next flush starts with a newline.
	buf      []byte
	needTerm bool
	done     map[int]json.RawMessage
	pending  int
	every    int
	retries  int
	backoff  time.Duration
	sleep    func(time.Duration)
	closed   bool
	degraded bool
	degErr   error
}

// Done returns sample i's journaled outcome, if present.
func (j *Journal) Done(i int) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.done[i]
	return v, ok
}

// Len returns the number of journaled samples.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Degraded reports whether the journal abandoned persistence after a
// persistent I/O failure, and the error that tripped it.
func (j *Journal) Degraded() (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded, j.degErr
}

// setSleep replaces the retry-backoff sleeper (test hook: the backoff
// schedule is asserted without waiting it out).
func (j *Journal) setSleep(fn func(time.Duration)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sleep = fn
}

// Record journals sample i's classified outcome, flushing and syncing
// every Every records so a crash loses at most the unsynced tail. It
// returns an error only for unencodable values; I/O failures go
// through the retry-then-degrade policy instead of failing the
// campaign.
func (j *Journal) Record(i int, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line, err := json.Marshal(journalLine{I: i, V: raw})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[i] = raw
	mJournalRecords.Inc()
	if j.degraded {
		return nil
	}
	j.buf = append(j.buf, line...)
	j.buf = append(j.buf, '\n')
	j.pending++
	if j.pending >= j.every {
		j.pending = 0
		j.flushLocked()
	}
	return nil
}

// Close flushes, syncs, and closes the journal. Safe to call twice.
// Like Record, it absorbs I/O failure into degraded mode: callers that
// care inspect Degraded afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.degraded {
		return nil
	}
	j.flushLocked()
	if j.degraded {
		return nil
	}
	if err := j.f.Close(); err != nil {
		j.degradeLocked(err)
	}
	return nil
}

// flushLocked writes the buffered lines and syncs, retrying transient
// failures with exponential backoff and degrading the journal after
// persistent ones. The retry strategy is torn-tail aware: after any
// failed write the file may end mid-line, so the next attempt first
// emits a newline terminator and then rewrites the entire buffer.
// Records whose lines made it to disk before the tear are written
// twice — harmless, since reload keeps the last value per index and
// skips unparsable fragments.
func (j *Journal) flushLocked() {
	var err error
	for attempt := 0; attempt <= j.retries; attempt++ {
		if attempt > 0 {
			mJournalRetries.Inc()
			if j.backoff > 0 {
				j.sleep(j.backoff << (attempt - 1))
			}
		}
		if err = j.tryFlushLocked(); err == nil {
			return
		}
		mJournalIOErrors.Inc()
	}
	j.degradeLocked(err)
}

// tryFlushLocked is one write-and-sync attempt.
func (j *Journal) tryFlushLocked() error {
	if len(j.buf) > 0 || j.needTerm {
		payload := j.buf
		if j.needTerm {
			payload = make([]byte, 0, len(j.buf)+1)
			payload = append(payload, '\n')
			payload = append(payload, j.buf...)
		}
		n, err := j.f.Write(payload)
		if err != nil {
			if n > 0 {
				// A short write left a (possibly) torn tail; the next
				// attempt must start on a fresh line.
				j.needTerm = true
			}
			return err
		}
		j.buf = j.buf[:0]
		j.needTerm = false
	}
	start := telemetry.Clock()
	if err := j.f.Sync(); err != nil {
		return err
	}
	mJournalFsyncs.Inc()
	mJournalFsyncNs.ObserveSince(start)
	return nil
}

// degradeLocked abandons persistence: the file handle is closed
// (best-effort), buffered-but-unwritten lines are dropped from the
// write path (their records remain in the in-memory map, so the
// current invocation still aggregates them), and the journal reports
// itself degraded. Loud by design — the counter, the campaign result
// flag, and the CLI warning all hang off this state — but never fatal.
func (j *Journal) degradeLocked(err error) {
	if j.degraded {
		return
	}
	j.degraded = true
	j.degErr = err
	j.buf = nil
	mJournalDegraded.Inc()
	if j.f != nil {
		j.f.Close()
	}
}

// compact rewrites the surviving records to a scratch file and renames
// it over the journal, dropping damaged lines accumulated by earlier
// crashes. Records are written in ascending index order so the
// compacted journal's bytes are a pure function of its contents. Any
// failure leaves the original journal in place (reload skips damage
// anyway); reports success.
func (j *Journal) compact() bool {
	tmp := j.path + ".compact"
	f, err := j.fs.Create(tmp)
	if err != nil {
		mJournalCompactErrors.Inc()
		return false
	}
	keys := make([]int, 0, len(j.done))
	for i := range j.done {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	var buf []byte
	for _, i := range keys {
		line, err := json.Marshal(journalLine{I: i, V: j.done[i]})
		if err != nil {
			continue
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	write := func() error {
		if _, err := f.Write(buf); err != nil {
			return err
		}
		return f.Sync()
	}
	if err := write(); err != nil {
		f.Close()
		j.fs.Remove(tmp)
		mJournalCompactErrors.Inc()
		return false
	}
	if err := f.Close(); err != nil {
		j.fs.Remove(tmp)
		mJournalCompactErrors.Inc()
		return false
	}
	// A kill between the record rewrite above and this rename leaves
	// only the orphan scratch file: the original journal is untouched
	// and the next Open simply compacts again.
	if err := j.fs.Rename(tmp, j.path); err != nil {
		j.fs.Remove(tmp)
		mJournalCompactErrors.Inc()
		return false
	}
	mJournalCompactions.Inc()
	return true
}

// SampleSeed returns the per-item stream seed item i receives in
// parallel and checkpointed sampling modes — enough to replay one
// sample in isolation (rng.New(SampleSeed(seed, i))).
func SampleSeed(seed uint64, i int) uint64 {
	r := rng.New(seed)
	var s uint64
	for k := 0; k <= i; k++ {
		s = r.Uint64()
	}
	return s
}

// stratumRoot decorrelates the stratified seed chain from the flat
// per-sample chain: it is the splitmix64 golden-ratio increment, so a
// campaign seed's stratified streams never coincide with the streams
// the same seed produces under uniform (seed, index) addressing.
const stratumRoot = 0x9e3779b97f4a7c15

// StratumSeed derives the random-stream root of one stratum of a
// stratified campaign. Sample j of stratum h then draws its private
// stream from the j-th output of rng.New(StratumSeed(seed, h)) — the
// (seed, stratum, index) analogue of SampleSeed's (seed, index)
// addressing, with the same resume property: a sample's stream depends
// only on its address, never on which samples already ran, on worker
// count, or on how the adaptive allocator reached it.
func StratumSeed(seed uint64, stratum int) uint64 {
	return SampleSeed(seed^stratumRoot, stratum)
}

// SampleKey packs a (stratum, index) address into the journal's flat
// integer key space: stratified campaigns record sample (h, j) under
// key h<<32 | j. It panics when either coordinate leaves its 31/32-bit
// field — far beyond any real campaign, but an overflow here would
// silently alias journal records.
func SampleKey(stratum, index int) int {
	if stratum < 0 || index < 0 || stratum >= 1<<31 || index >= 1<<32 {
		panic(fmt.Sprintf("exec: sample key (%d, %d) out of range", stratum, index))
	}
	return stratum<<32 | index
}
