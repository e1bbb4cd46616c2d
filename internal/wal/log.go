package wal

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
)

// logRetries bounds how many times a transient injected log-device
// fault is retried before the log degrades (force: typed ErrIO) or
// halts (append: fail-stop — a system that cannot write its log must
// not keep running).
const logRetries = 4

// LSN is a log sequence number: the record's byte offset in the log
// plus one, so 0 means "no LSN".
type LSN = uint64

// Log is the append-only write-ahead log. Crash semantics: Crash()
// discards what the device never received, exactly what a real log
// device guarantees.
//
// Forcing is a pipeline over two watermarks, written <= the tail and
// flushed <= written. A committer whose record is not yet written hands
// the whole unwritten tail to the device under mu (framing and a
// page-cache write: microseconds), releases mu, syncs, re-takes mu and
// publishes flushed = max(flushed, the end it wrote). A committer whose
// record somebody else already wrote waits for a sync in flight and is
// usually covered by it: a saved force, the group commit. Syncs may
// overlap — a second committer with bytes of its own does not queue
// behind the first one's fsync, and each sync covers everything written
// before it started, so publishing its own end is always sound. mu is
// never held across a sync, a segment rotation, retention or a fault
// point at the force, so Append, Tail, Read, DurableLSN and the counter
// accessors never wait for I/O. Both devices run this protocol; the
// in-memory device just has nothing to write and nothing to fsync, so
// unless a fault injector is wired it publishes on the spot.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast when a watermark or a device flag changes
	s    stream     // retained records; s.end is the tail

	// base is the retained base: records at stream offsets below it were
	// dropped by retention (LSNs are stream offsets plus one). Both
	// devices move it at every checkpoint (TruncateBelow).
	base    uint64
	written uint64 // stream offset below which the device has the bytes
	flushed uint64 // stream offset below which they are durable

	// syncs counts device syncs in flight (mu released). busy marks the
	// device exclusively owned — a segment rotation, retention, Crash or
	// Close is moving files, so no write or sync may start; the owner
	// first waits for syncs to drain. waiters counts goroutines in
	// cond.Wait so that the uncontended force never broadcasts.
	syncs   int
	busy    bool
	waiters int

	// seg is the file device (nil for the in-memory log); see
	// SegmentedLog for which of its methods need mu.
	seg *SegmentedLog
	// crashErr records a corruption error from a Crash-time re-scan of
	// the segment directory; Crash cannot return it, so reads surface
	// it instead.
	crashErr error

	inj *fault.Injector
	// syncStall, when set by a test, runs with mu released right before
	// the device sync of every force.
	syncStall func()
	// rngMu guards retryRNG: backoff sleeps run with mu released, so
	// the RNG needs its own lock. Fixed seed keeps retry schedules
	// deterministic under test.
	rngMu    sync.Mutex
	retryRNG *rand.Rand

	// Counters are atomics so metrics scraping never takes the log
	// mutex and never contends with commit.
	bytesAppended atomic.Int64
	forcedWrites  atomic.Int64
	bytesForced   atomic.Int64
	groupLeaders  atomic.Int64
	forcesSaved   atomic.Int64 // forces covered by somebody else's sync

	// Automatic-checkpoint bookkeeping in stream offsets, atomics so that
	// the check after every logged commit takes no lock: ckptEvery is the
	// interval, ckptRedo the last checkpoint's redo point and ckptDue the
	// BytesAppended value at which the next checkpoint falls due.
	ckptEvery atomic.Int64
	ckptRedo  atomic.Int64
	ckptDue   atomic.Int64

	// ring receives group-flush, rotation and truncation trace events
	// (nil when no observer is wired). Emitting under l.mu is fine:
	// Emit is wait-free and never does I/O.
	ring *obs.Ring
}

// DefaultCheckpointInterval is how many log bytes past the last
// checkpoint's redo point make the next automatic checkpoint due. It
// bounds both what a restart replays and, through the retention that
// every checkpoint applies, the log a device holds.
const DefaultCheckpointInterval = 16 << 20

// NewLog returns an empty in-memory log.
func NewLog() *Log {
	l := &Log{retryRNG: rand.New(rand.NewSource(0x109))}
	l.cond = sync.NewCond(&l.mu)
	l.SetCheckpointInterval(DefaultCheckpointInterval)
	return l
}

// OpenSegmentedLog opens (creating if needed) a file-backed log over
// the segment files in dir, running recovery first: segments are
// scanned in creation order, a ragged tail in the newest segment is
// zeroed out as a torn write, and mid-stream damage fails with
// ErrWALCorrupt. The returned log's durable prefix is exactly what the
// scan accepted.
func OpenSegmentedLog(dir string, opts SegmentOptions) (*Log, error) {
	seg, base, s, err := recoverDir(dir, opts)
	if err != nil {
		return nil, err
	}
	l := NewLog()
	l.seg, l.base, l.s = seg, base, s
	l.written, l.flushed = s.end, s.end
	l.bytesAppended.Store(int64(s.end))
	// No checkpoint has been taken by this process yet: count the interval
	// from the retained base, which no checkpoint's redo point lies below.
	l.ckptRedo.Store(int64(base))
	l.SetCheckpointInterval(DefaultCheckpointInterval)
	return l, nil
}

// SetCheckpointInterval sets the automatic-checkpoint interval in log
// bytes (see DefaultCheckpointInterval). It is a per-log setting for
// tests and the crash sweep, which lower it to take checkpoints often.
func (l *Log) SetCheckpointInterval(n int64) {
	l.ckptEvery.Store(n)
	l.ckptDue.Store(l.ckptRedo.Load() + n)
}

// CheckpointDue reports whether the log has grown by the interval since
// the last checkpoint's redo point. Lock-free: the database asks after
// every logged commit.
func (l *Log) CheckpointDue() bool { return l.bytesAppended.Load() >= l.ckptDue.Load() }

// CheckpointTaken records a completed checkpoint with redo point redo:
// the next one falls due an interval past it.
func (l *Log) CheckpointTaken(redo LSN) {
	l.ckptRedo.Store(int64(redo - 1))
	l.ckptDue.Store(int64(redo-1) + l.ckptEvery.Load())
}

// CheckpointFailed postpones the next automatic checkpoint by one
// interval from the current tail, so a checkpoint that failed is
// retried at the next crossing instead of by every commit.
func (l *Log) CheckpointFailed() {
	l.ckptDue.Store(l.bytesAppended.Load() + l.ckptEvery.Load())
}

// BytesSinceCheckpoint returns the log bytes appended since the last
// checkpoint's redo point: what a restart would replay. Lock-free.
func (l *Log) BytesSinceCheckpoint() int64 {
	return l.bytesAppended.Load() - l.ckptRedo.Load()
}

// RetainedBytes returns the log bytes the device still holds: the tail
// minus the retained base.
func (l *Log) RetainedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.s.end - l.base)
}

// SetInjector installs the fault injector consulted at the wal.append,
// wal.force and wal.truncate fault points (nil disables injection).
func (l *Log) SetInjector(in *fault.Injector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inj = in
}

// SetObserver wires the trace ring the log emits events into (nil
// disables tracing). Call before the log sees traffic.
func (l *Log) SetObserver(ring *obs.Ring) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring = ring
}

// retryBackoff sleeps briefly before a transient-fault retry with
// deterministic seeded jitter. Called with l.mu released so a faulty
// log device never stalls appenders.
func (l *Log) retryBackoff(attempt int) {
	base := time.Duration(attempt) * 50 * time.Microsecond
	if base > time.Millisecond {
		base = time.Millisecond
	}
	l.rngMu.Lock()
	jitter := time.Duration(l.retryRNG.Int63n(int64(base)/2 + 1))
	l.rngMu.Unlock()
	time.Sleep(base/2 + jitter)
}

// wait blocks on cond (releasing l.mu) until the next wake.
func (l *Log) wait() {
	l.waiters++
	l.cond.Wait()
	l.waiters--
}

// wake rouses every waiter to re-check its condition.
func (l *Log) wake() {
	if l.waiters > 0 {
		l.cond.Broadcast()
	}
}

// acquireDevice takes exclusive ownership of the device: new forces
// queue behind busy, and the syncs already in flight are drained, so
// the owner may close, delete or swap files. Called with l.mu held; the
// owner may release l.mu while it works.
func (l *Log) acquireDevice() {
	for l.busy {
		l.wait()
	}
	l.busy = true
	for l.syncs > 0 {
		l.wait()
	}
}

func (l *Log) releaseDevice() {
	l.busy = false
	l.wake()
}

// appendBufBytes sizes the stack buffer Append encodes into: a replace
// update with a 12-byte key and two 48-byte values encodes to 122 bytes
// (TestEncodedSizes). A larger record (a split, a page image) grows the
// buffer onto the heap.
const appendBufBytes = 256

// Append encodes and appends r, returning its LSN. The record is not
// durable until a flush covers it.
func (l *Log) Append(r Record) LSN {
	var buf [appendBufBytes]byte
	payload := appendRecord(buf[:0], r)
	l.mu.Lock()
	defer l.mu.Unlock()
	// Append has no error return (30+ call sites rely on log writes
	// succeeding), so transient faults are absorbed here; if the log
	// device stays dead past the retry budget the system must halt —
	// fail-stop is the only sound response to an unwritable log.
	for attempt := 0; ; attempt++ {
		//vet:allow(nolockio) -- l.mu is the simulated log device's own serialization; crash faults panic and never return here
		err := l.inj.Hit(fault.WALAppend)
		if err == nil {
			break
		}
		if !fault.IsTransient(err) || attempt >= logRetries {
			panic(fault.FailStop(fault.WALAppend))
		}
		l.mu.Unlock()
		l.retryBackoff(attempt + 1)
		l.mu.Lock()
	}
	off := l.s.append(payload)
	l.bytesAppended.Store(int64(l.s.end))
	return off + 1
}

// Tail returns the LSN one past the last appended record (the next
// record's LSN).
func (l *Log) Tail() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.end + 1
}

// FlushTo makes the log durable at least through the record starting at
// lsn. It satisfies storage.LogFlusher. Concurrent callers share writes
// and syncs: see forceTo.
func (l *Log) FlushTo(lsn LSN) error {
	if lsn == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.base {
		return nil // below the retained base: durable by construction
	}
	if lsn-1 > l.s.end {
		return fmt.Errorf("wal: flush beyond tail (lsn %d, tail %d)", lsn, l.s.end+1)
	}
	// One durable byte of the record implies all of it: flushed only
	// ever lands on the end of a write, and a write ends on a record
	// boundary.
	return l.forceTo(min(lsn, l.s.end))
}

// DurableLSN returns the highest LSN known durable: every record whose
// LSN is at most the result has reached stable storage (the same
// predicate FlushTo waits on). The invariants build uses it to assert
// the WAL rule on every page flush.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// Flush forces everything appended so far.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceTo(l.s.end)
}

// forceTo returns once every byte below stream offset target is
// durable. A caller whose bytes are already written while a sync is in
// flight waits for that sync; anyone else forces the unwritten tail
// itself. Called with l.mu held.
//
//vet:holds(l.mu)
func (l *Log) forceTo(target uint64) error {
	waited := false
	for l.flushed < target {
		if l.busy || (l.written >= target && l.syncs > 0) {
			waited = true
			l.wait()
			continue
		}
		waited = false
		if err := l.force(); err != nil {
			return err
		}
	}
	if waited {
		l.forcesSaved.Add(1)
	}
	return nil
}

// force performs one forced write: the unwritten tail goes to the
// device under l.mu (a full segment is swapped for a fresh one on the
// way), then the device is synced with l.mu released and the new
// durable end published. The wal.force fault point sits in front of
// the sync. Transient faults there are retried with jittered backoff;
// exhaustion degrades into storage.ErrIO, and the bytes stay written
// for the next force to sync. Called with l.mu held and the device not
// busy; returns with l.mu held.
//
//vet:holds(l.mu)
func (l *Log) force() (err error) {
	l.groupLeaders.Add(1)
	from := l.written
	var (
		cur      *os.File // segment the sync is for
		tearFrom int64    // where this force began writing in cur
	)
	if l.seg != nil {
		cur, tearFrom = l.seg.cur, l.seg.curSize
	}
	for l.written < l.s.end {
		if l.seg == nil {
			l.written = l.s.end
			break
		}
		recs := l.s.from(l.written)
		n, werr := l.seg.write(recs)
		l.written += uint64(n)
		if werr != nil {
			return werr
		}
		if n < len(recs) {
			// The segment is full and records remain. Rotating drains the
			// syncs in flight and syncs the old segment itself, so
			// everything written so far is durable when it returns.
			if err := l.rotate(); err != nil {
				return err
			}
			cur, tearFrom = l.seg.cur, l.seg.curSize
		}
	}
	end := l.written
	if cur == nil && l.inj == nil && l.syncStall == nil {
		// The in-memory device with no injector wired has no sync to wait
		// for and no fault point to pass: publish without letting go of
		// the mutex.
		l.publish(from, end)
		return nil
	}
	var tearTo int64
	if cur != nil {
		tearTo = l.seg.curSize
	}
	inj, stall, durable := l.inj, l.syncStall, l.flushed

	l.syncs++
	l.mu.Unlock()
	synced, torn := false, false
	defer func() {
		// Runs on a crash panic out of the fault point too: a count left
		// behind would hang every later force on the restarted log.
		l.mu.Lock()
		l.syncs--
		switch {
		case synced:
			l.publish(from, end)
		case torn && cur == nil:
			// Torn force on the in-memory device: half of what was not
			// durable yet made it (Crash cuts the ragged edge back to a
			// record boundary, as a recovery scan would).
			if half := durable + (end-durable)/2; half > l.flushed {
				l.flushed = half
			}
		}
		l.wake()
	}()

	for attempt := 0; attempt <= logRetries; attempt++ {
		if attempt > 0 {
			l.retryBackoff(attempt)
		}
		err = inj.HitTorn(fault.WALForce, func() {
			// Torn force: only the first half of the bytes this force put
			// into the segment reached the media. The crash panic follows;
			// the re-scan zeroes the ragged edge back to a record boundary.
			torn = true
			if cur != nil {
				tearSegment(cur, tearFrom+(tearTo-tearFrom)/2, tearTo)
			}
		})
		if err == nil {
			if stall != nil {
				stall()
			}
			if cur != nil {
				// A sync failure is a log-device failure and fails the
				// force outright.
				err = l.seg.sync(cur)
			}
			synced = err == nil
			return err
		}
		if !fault.IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("wal: force: %w (last: %v)", storage.ErrIO, err)
}

// publish records a completed force that wrote stream bytes [from, end)
// and made everything below end durable. Called with l.mu held.
func (l *Log) publish(from, end uint64) {
	if end > l.flushed {
		l.flushed = end
	}
	l.forcedWrites.Add(1)
	l.bytesForced.Add(int64(end - from))
	if l.ring != nil {
		l.ring.Emit(obs.EvGroupFlush, end-from, uint64(l.forcesSaved.Load()))
	}
}

// rotate swaps the full current segment for a fresh one: with the
// device owned and l.mu released it syncs the old segment, creates and
// zero-fills the next and closes the old one. Committers wait for it;
// appenders do not. Called with l.mu held; returns with it held.
//
//vet:holds(l.mu)
func (l *Log) rotate() error {
	l.acquireDevice()
	defer l.releaseDevice()
	if !l.seg.full() {
		return nil // another committer rotated while this one waited
	}
	end := l.written
	l.mu.Unlock()
	err := l.seg.rotate(end + 1)
	l.mu.Lock()
	if err != nil {
		return err
	}
	if end > l.flushed {
		l.flushed = end
	}
	if l.ring != nil {
		created, _, live := l.seg.counts()
		l.ring.Emit(obs.EvWALRotate, uint64(created), uint64(live))
	}
	return nil
}

// Crash discards every record the device never received, then cuts any
// torn tail back to the last complete record: a restart log scan stops
// at the first record whose length prefix runs past the durable end, so
// bytes of a half-forced record are unreadable garbage, not data.
//
// On the file device, Crash is the simulated restart of the log
// manager: the in-memory state is thrown away and rebuilt by re-running
// the segment-directory recovery scan, which is also what zeroes a
// half-forced (torn) tail on real media. The process does not die, so
// neither does the page cache: bytes a committer had written but not
// yet synced when Crash landed may survive it, as they may survive a
// real power cut. Only acknowledged forces are promised to. A scan
// failure (deliberate corruption) is remembered and surfaced from the
// next read.
//
// Crash drains the syncs in flight and is the one place that keeps
// l.mu across file I/O: nothing may look at the log between the power
// cut and the end of the re-scan.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acquireDevice()
	defer l.releaseDevice()
	if l.seg != nil {
		opts := SegmentOptions{SegmentBytes: l.seg.segBytes, FragmentBytes: l.seg.fragBytes}
		dir := l.seg.dir
		_ = l.seg.close()
		seg, base, s, err := recoverDir(dir, opts)
		if err != nil {
			l.crashErr = err
			l.s = stream{}
			l.base, l.written, l.flushed = 0, 0, 0
			return
		}
		l.seg, l.base, l.s = seg, base, s
		l.crashErr = nil
	} else {
		l.s.cut(l.flushed)
	}
	l.written, l.flushed = l.s.end, l.s.end
	l.bytesAppended.Store(int64(l.s.end))
}

// Close releases the file device's segment handle (a no-op for the
// in-memory log). It does not force: callers wanting the tail durable
// run Flush first.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return nil
	}
	l.acquireDevice()
	defer l.releaseDevice()
	return l.seg.close()
}

// TruncateBelow applies log retention and returns how many bytes the
// retained base moved. horizon must be a record's LSN (or the tail) at
// or below the durable end, and the caller (a checkpoint) must
// guarantee nothing below it will be read again: no active
// transaction's undo chain, no in-flight reorganization unit and no
// restart from the last checkpoint may reach below it. The in-memory
// device moves its base to the horizon and frees every chunk wholly
// below it; the file device deletes every segment wholly below the
// horizon — segment granularity, so its base stops at the first
// retained segment's first LSN — and trims the stream to match.
func (l *Log) TruncateBelow(horizon LSN) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if horizon <= l.base+1 {
		return 0, nil
	}
	if horizon-1 > l.flushed {
		return 0, fmt.Errorf("wal: truncate above the durable end (horizon %d, durable %d)", horizon, l.flushed)
	}
	old := l.base
	if l.seg == nil {
		l.base = horizon - 1
		l.s.dropBelow(l.base)
		return int64(l.base - old), nil
	}
	newBase, deleted, err := l.retain(horizon)
	if newBase-1 > l.base {
		l.base = newBase - 1
		l.s.dropBelow(l.base)
	}
	if l.ring != nil && deleted > 0 {
		l.ring.Emit(obs.EvWALTruncate, uint64(deleted), newBase)
	}
	return int64(l.base - old), err
}

// retain runs the file device's retention with the device owned and
// l.mu released; the wal.truncate fault point sits in front of every
// segment it deletes. The deferred re-lock comes first so that a crash
// panic out of the fault point unwinds with l.mu held again. Called
// with l.mu held; returns with it held.
//
//vet:holds(l.mu)
func (l *Log) retain(horizon LSN) (newBase uint64, deleted int, err error) {
	l.acquireDevice()
	defer l.releaseDevice()
	inj := l.inj
	l.mu.Unlock()
	defer l.mu.Lock()
	return l.seg.retain(horizon, inj)
}

// Fsyncs returns the number of fsyncs the file device has issued
// (zero for the in-memory log). Lock-free.
func (l *Log) Fsyncs() int64 {
	if seg := l.device(); seg != nil {
		return seg.fsyncs.Load()
	}
	return 0
}

// SegmentCounts returns the file device's lifetime segment counters:
// segments created, segments deleted by retention, and segments
// currently live (all zero for the in-memory log).
func (l *Log) SegmentCounts() (created, deleted, live int64) {
	if seg := l.device(); seg != nil {
		return seg.counts()
	}
	return 0, 0, 0
}

// device returns the file device (nil for the in-memory log). Crash
// replaces it, hence the mutex; its counters are atomics, so reading
// them afterwards waits for nothing.
func (l *Log) device() *SegmentedLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// BytesAppended returns the total log volume generated (a primary
// metric in the paper: log size is "a significant factor in
// reorganization methods"). Lock-free: metrics scraping never contends
// with commit.
func (l *Log) BytesAppended() int64 { return l.bytesAppended.Load() }

// ForcedWrites returns the number of forced log writes actually
// performed. Lock-free.
func (l *Log) ForcedWrites() int64 { return l.forcedWrites.Load() }

// ForcesSaved returns the number of FlushTo/Flush calls that found
// their LSN durable after waiting on another caller's forced write —
// the forced I/Os group commit avoided. Lock-free.
func (l *Log) ForcesSaved() int64 { return l.forcesSaved.Load() }

// GroupLeaders returns the number of forced writes attempted (equal to
// ForcedWrites plus the forces that failed). Lock-free.
func (l *Log) GroupLeaders() int64 { return l.groupLeaders.Load() }

// BytesForced returns the total bytes handed to the device by forced
// writes; divided by ForcedWrites it gives the mean group-commit batch
// size. Lock-free.
func (l *Log) BytesForced() int64 { return l.bytesForced.Load() }

// Read decodes the record at lsn and returns it with the next record's
// LSN.
func (l *Log) Read(lsn LSN) (Record, LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn == 0 {
		return nil, 0, fmt.Errorf("wal: read of LSN 0")
	}
	if l.crashErr != nil {
		return nil, 0, l.crashErr
	}
	if lsn <= l.base {
		return nil, 0, fmt.Errorf("wal: LSN %d below retained base %d", lsn, l.base)
	}
	payload, next, err := l.s.record(lsn - 1)
	if err != nil {
		return nil, 0, err
	}
	r, err := Decode(payload)
	if err != nil {
		return nil, 0, err
	}
	return r, next + 1, nil
}

// Iterate calls fn for every record with LSN >= from, in order. fn
// returning a non-nil error stops iteration and is returned.
func (l *Log) Iterate(from LSN, fn func(lsn LSN, r Record) error) error {
	l.mu.Lock()
	if l.crashErr != nil {
		l.mu.Unlock()
		return l.crashErr
	}
	if from <= l.base {
		// Records below the retained base were deleted by retention; the
		// stream logically starts at base+1.
		from = l.base + 1
	}
	l.mu.Unlock()
	for {
		if from >= l.Tail() {
			return nil
		}
		r, next, err := l.Read(from)
		if err != nil {
			return err
		}
		if err := fn(from, r); err != nil {
			return err
		}
		from = next
	}
}

// LastCheckpoint scans for the most recent durable checkpoint record,
// returning its LSN and value (ok=false when none exists). Real
// systems store this address in a master record; a scan is equivalent
// for the simulation.
func (l *Log) LastCheckpoint() (LSN, Checkpoint, bool) {
	var (
		found bool
		at    LSN
		cp    Checkpoint
	)
	_ = l.Iterate(1, func(lsn LSN, r Record) error {
		if c, ok := r.(Checkpoint); ok {
			found, at, cp = true, lsn, c
		}
		return nil
	})
	return at, cp, found
}
