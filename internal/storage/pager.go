package storage

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/obs"
)

// ErrIO reports a permanent I/O failure: every retry of a transient
// disk fault failed, so the operation degrades gracefully into a typed
// error instead of panicking or wedging the pool.
var ErrIO = errors.New("storage: I/O failure (retry budget exhausted)")

// ioRetries bounds how many times a transient disk fault is retried
// before ErrIO surfaces.
const ioRetries = 4

// maxShards caps the shard fan-out of the page table. Shard count is a
// power of two so the PageID hash reduces with a mask.
const maxShards = 16

// LogFlusher is the slice of the log manager the buffer pool needs for
// the write-ahead rule: before a dirty page image reaches disk, the log
// must be durable up to that page's pageLSN.
type LogFlusher interface {
	FlushTo(lsn uint64) error
}

// Frame is an in-memory copy of one page. The embedded RWMutex is the
// physical latch: logical locks (internal/lock) order transactions, the
// latch orders byte-level access within an operation.
type Frame struct {
	sync.RWMutex
	id   PageID
	data Page
	// pin counts fixes. It is atomic so Unfix never touches the shard
	// mutex; 0→1 transitions only happen under the shard mutex (Fix,
	// fixFresh), which is what eviction relies on when it selects an
	// unpinned victim while holding that mutex.
	pin atomic.Int32
	// dirty is atomic so MarkDirty can run while the caller holds the
	// frame latch without touching any pool lock (the flusher copies the
	// page under the frame's read latch; taking a pool lock under a held
	// frame latch would invert the lock order).
	dirty atomic.Bool
	// loading is true while the initial disk read fills data. The loader
	// holds the frame's write latch for the duration, so a second fixer
	// that finds loading set waits on the read latch instead of spinning.
	loading atomic.Bool
	// loadErr is set (before the loader releases the write latch) when
	// the initial read failed permanently; waiters observe it under the
	// read latch.
	loadErr error
	// flushMu serialises writers of this frame's disk image: concurrent
	// flushes of the same page could otherwise overtake each other and
	// leave an older image on disk with the dirty bit already cleared.
	flushMu sync.Mutex
	// ref is the CLOCK reference bit; slot is the frame's position in
	// its shard's clock ring. Both are guarded by the shard mutex.
	ref  bool
	slot int
	// evicting marks a frame whose dirty image is being flushed by an
	// evictor that has released the shard mutex; it keeps a second
	// evictor from picking the same victim. Guarded by the shard mutex.
	evicting bool
}

// ID returns the frame's page id.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page bytes. Callers must hold the frame latch
// (read or write as appropriate) while touching them.
func (f *Frame) Data() Page { return f.data }

// PoolStats aggregates the buffer pool's concurrency counters: hit/miss
// traffic, CLOCK eviction work, and how often a shard mutex was found
// contended (a direct measure of what sharding buys on the hot path).
type PoolStats struct {
	Hits            atomic.Int64
	Misses          atomic.Int64
	Evictions       atomic.Int64
	DirtyEvictions  atomic.Int64
	EvictionScans   atomic.Int64 // clock-hand steps taken while hunting victims
	ShardContention atomic.Int64 // shard mutex acquisitions that had to block
}

// shard is one slice of the page table: a map plus a CLOCK ring with
// its own mutex, so fixes of unrelated pages never serialise.
type shard struct {
	mu     sync.Mutex
	frames map[PageID]*Frame
	ring   []*Frame // clock ring; nil entries are free slots
	slots  []int    // free slot indices in ring
	hand   int
	cap    int // max resident frames in this shard (0 = unbounded)
}

// Pager is the buffer pool. It owns the free map and the careful-write
// dependency graph and enforces the WAL rule on every flush/eviction.
// The page table is sharded by PageID hash; the free map and dependency
// graph sit under their own small locks so allocation and careful
// writing never contend with page fixes.
type Pager struct {
	disk Disk
	wal  LogFlusher

	shards []*shard
	mask   uint64

	inj atomic.Pointer[fault.Injector]

	// allocMu guards the free map (allocation is rare next to fixes).
	allocMu sync.Mutex
	free    *FreeMap

	// depMu guards the careful-write dependency graph (Lomet–Tuttle):
	// deps[p] maps each page p waits on to the number of the image of
	// it that must be on media before p may be flushed or deallocated;
	// targets holds the image count of every page some page waits on;
	// unsynced lists the target images written since the Sync that
	// last covered them.
	depMu    sync.Mutex
	deps     map[PageID]map[PageID]uint64
	targets  map[PageID]*depTarget
	unsynced []writtenImage
	// syncEpoch counts page-file Syncs begun. An image whose write
	// returned while it read e is on media once a Sync that began after
	// it (epoch e+1 or later) has returned.
	syncEpoch atomic.Uint64

	// rngMu guards retryRNG, which jitters the transient-I/O backoff;
	// backoff runs with no pool locks held, so the RNG needs its own
	// lock. Its fixed seed keeps retry schedules deterministic under
	// test.
	rngMu    sync.Mutex
	retryRNG *rand.Rand

	// pins is the invariants-build pin ledger (a zero-cost empty struct
	// in release builds); Close cross-checks it against the frames.
	pins invariant.Pins

	stats PoolStats

	// ring receives eviction trace events (nil when no observer is
	// wired). Set once before the pool sees traffic.
	ring *obs.Ring
}

// shardCountFor picks a power-of-two shard count: wide for unbounded
// pools, narrowing for small ones so per-shard capacity (and therefore
// CLOCK eviction quality) stays sensible. A pool of n pages gets at
// most n/4 shards.
func shardCountFor(capacity int) int {
	if capacity <= 0 {
		return maxShards
	}
	n := 1
	for n*2 <= capacity/4 && n*2 <= maxShards {
		n *= 2
	}
	return n
}

// NewPager creates a buffer pool over disk with at most capacity
// resident frames (0 means unbounded). wal may be nil for WAL-free use
// (tests, scratch pools).
func NewPager(disk Disk, capacity int, wal LogFlusher) *Pager {
	n := shardCountFor(capacity)
	p := &Pager{
		disk:     disk,
		wal:      wal,
		shards:   make([]*shard, n),
		mask:     uint64(n - 1),
		free:     NewFreeMap(),
		retryRNG: rand.New(rand.NewSource(0x5eed)),
		deps:     make(map[PageID]map[PageID]uint64),
		targets:  make(map[PageID]*depTarget),
	}
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + n - 1) / n
	}
	for i := range p.shards {
		p.shards[i] = &shard{frames: make(map[PageID]*Frame), cap: perShard}
	}
	return p
}

// Disk returns the underlying stable-storage backend.
func (p *Pager) Disk() Disk { return p.disk }

// SetInjector installs the fault injector consulted at the pager.flush
// and pager.evict fault points (nil disables injection).
func (p *Pager) SetInjector(in *fault.Injector) { p.inj.Store(in) }

func (p *Pager) injector() *fault.Injector { return p.inj.Load() }

// Stats exposes the pool's concurrency counters.
func (p *Pager) Stats() *PoolStats { return &p.stats }

// SetObserver wires the trace ring the pool emits eviction events into
// (nil disables tracing). Call before the pool sees traffic.
func (p *Pager) SetObserver(ring *obs.Ring) { p.ring = ring }

// ShardCount reports the page-table fan-out (observability).
func (p *Pager) ShardCount() int { return len(p.shards) }

// shardFor hashes a page id onto its shard. The multiplicative hash
// spreads both sequential and strided id patterns.
func (p *Pager) shardFor(id PageID) *shard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15>>47)&p.mask]
}

// lock acquires the shard mutex, counting contended acquisitions.
func (s *shard) lock(st *PoolStats) {
	if s.mu.TryLock() {
		invariant.LockAcquire("storage.shard")
		return
	}
	st.ShardContention.Add(1)
	s.mu.Lock()
	invariant.LockAcquire("storage.shard")
}

// unlock releases the shard mutex (and, under the invariants build,
// pops the lock-order tracker).
func (s *shard) unlock() {
	s.mu.Unlock()
	invariant.LockRelease("storage.shard")
}

// insert publishes f in the shard's table and clock ring. Caller holds
// the shard mutex.
func (s *shard) insert(f *Frame) {
	s.frames[f.id] = f
	if n := len(s.slots); n > 0 {
		f.slot = s.slots[n-1]
		s.slots = s.slots[:n-1]
		s.ring[f.slot] = f
	} else {
		f.slot = len(s.ring)
		s.ring = append(s.ring, f)
	}
	f.ref = true
}

// remove drops f from the shard's table and clock ring. Caller holds
// the shard mutex.
func (s *shard) remove(f *Frame) {
	delete(s.frames, f.id)
	s.ring[f.slot] = nil
	s.slots = append(s.slots, f.slot)
}

// clockPick advances the clock hand to the next evictable frame
// (unpinned, not mid-eviction, reference bit clear), clearing reference
// bits as it sweeps. The first sweep also passes over dirty frames that
// wait on a careful-write dependency not yet on media, whose flush
// would cost a dependency write and a Sync; the second takes them. It
// returns nil when two full sweeps find nothing — the caller grows the
// pool past capacity (the soft cap that keeps the simulation robust
// when everything is pinned). Caller holds the shard mutex.
func (p *Pager) clockPick(s *shard) *Frame {
	if len(s.ring) == 0 {
		return nil
	}
	steps := 2 * len(s.ring)
	for i := 0; i < steps; i++ {
		f := s.ring[s.hand]
		s.hand = (s.hand + 1) % len(s.ring)
		p.stats.EvictionScans.Add(1)
		if f == nil || f.pin.Load() > 0 || f.evicting {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if i < len(s.ring) && f.dirty.Load() && len(p.openDeps(f.id)) > 0 {
			continue
		}
		return f
	}
	return nil
}

// retryIO runs fn, absorbing transient injected faults with up to
// ioRetries retries under jittered backoff; exhaustion degrades into a
// typed ErrIO. Backoff sleeps run with no pool locks held, so a page
// riding out a transient fault never stalls unrelated page traffic.
func (p *Pager) retryIO(what string, id PageID, fn func() error) error {
	var err error
	for attempt := 0; attempt <= ioRetries; attempt++ {
		if attempt > 0 {
			p.retryBackoff(attempt)
		}
		if err = fn(); err == nil || !fault.IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("storage: %s page %d: %w (last: %v)", what, id, ErrIO, err)
}

// retryBackoff sleeps briefly before a transient-I/O retry, with
// deterministic seeded jitter so concurrent retriers do not align.
func (p *Pager) retryBackoff(attempt int) {
	base := time.Duration(attempt) * 50 * time.Microsecond
	if base > time.Millisecond {
		base = time.Millisecond
	}
	p.rngMu.Lock()
	jitter := time.Duration(p.retryRNG.Int63n(int64(base)/2 + 1))
	p.rngMu.Unlock()
	time.Sleep(base/2 + jitter)
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.disk.PageSize() }

// FreeMap exposes the allocation map for single-threaded use (restart,
// tests). Concurrent queries must go through FirstFreeIn/IsFree, which
// take the allocation lock.
func (p *Pager) FreeMap() *FreeMap {
	return p.free
}

// FreeMapStats computes allocation and free-space-fragmentation
// statistics under the allocation lock (the occupancy gauges read it
// on a live system).
func (p *Pager) FreeMapStats() FreeMapStats {
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	defer p.allocMu.Unlock()
	defer invariant.LockRelease("storage.alloc")
	return p.free.Stats()
}

// FirstFreeIn returns the lowest free page id in the open interval
// (lo, hi), or InvalidPage, under the allocation lock.
func (p *Pager) FirstFreeIn(lo, hi PageID) PageID {
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	defer p.allocMu.Unlock()
	defer invariant.LockRelease("storage.alloc")
	return p.free.FirstFreeIn(lo, hi)
}

// lookup returns the resident frame for id, or nil.
func (p *Pager) lookup(id PageID) *Frame {
	sh := p.shardFor(id)
	sh.lock(&p.stats)
	f := sh.frames[id]
	sh.unlock()
	return f
}

// Fix pins page id in the pool, reading it from disk on a miss, and
// returns its frame. Callers must Unfix when done.
func (p *Pager) Fix(id PageID) (*Frame, error) {
	if id == InvalidPage {
		return nil, fmt.Errorf("storage: fix of invalid page")
	}
	sh := p.shardFor(id)
	grow := false
	for {
		sh.lock(&p.stats)
		if f, ok := sh.frames[id]; ok {
			f.pin.Add(1)
			p.pins.Inc(uint64(id))
			f.ref = true
			sh.unlock()
			p.stats.Hits.Add(1)
			if f.loading.Load() {
				// A concurrent fixer is mid-read and holds the write
				// latch; wait for it, then surface its failure if any.
				f.RLock()
				err := f.loadErr
				f.RUnlock()
				if err != nil {
					f.pin.Add(-1)
					p.pins.Dec(uint64(id))
					return nil, err
				}
			}
			return f, nil
		}
		if !grow {
			held, g := p.makeRoom(sh)
			if !held {
				grow = g
				continue // mutex was dropped; re-check the table
			}
		}
		return p.fixMiss(sh, id)
	}
}

// fixMiss finishes Fix's miss path once room is reserved: publish a
// loading frame, then read the page from disk outside every pool lock.
// Entered with sh locked; always returns with it unlocked.
//
//vet:coldpath -- a pool miss reads the page from disk; the I/O, not the frame allocation, dominates, and hit rates keep misses off the steady-state descent
func (p *Pager) fixMiss(sh *shard, id PageID) (*Frame, error) {
	// Miss with room reserved: publish a loading frame under the
	// write latch so a second fixer can pin it but must wait for the
	// read to finish before seeing the bytes.
	f := &Frame{id: id, data: make(Page, p.disk.PageSize())}
	f.pin.Store(1)
	p.pins.Inc(uint64(id))
	f.loading.Store(true)
	f.Lock()
	sh.insert(f)
	sh.unlock()
	p.stats.Misses.Add(1)

	// The read (and any transient-fault backoff) runs outside every
	// pool lock; only this frame's write latch is held.
	err := p.retryIO("read", id, func() error {
		return p.disk.Read(id, f.data)
	})
	if err != nil {
		sh.lock(&p.stats)
		sh.remove(f)
		sh.unlock()
		p.pins.Dec(uint64(id))
		f.loadErr = err
		f.loading.Store(false)
		f.Unlock()
		return nil, err
	}
	f.loading.Store(false)
	f.Unlock()
	return f, nil
}

// Unfix releases one pin on the frame. It touches no pool lock.
func (p *Pager) Unfix(f *Frame) {
	if f.pin.Add(-1) < 0 {
		panic(fmt.Sprintf("storage: unfix of unpinned page %d", f.id))
	}
	p.pins.Dec(uint64(f.id))
}

// TryRepin takes an additional pin on f iff it is currently pinned.
// A frame with a pin can never be evicted, so success means f is still
// the live frame for its page; failure means the last pin was dropped
// (and the frame possibly evicted) and the caller must go through Fix.
// It skips the shard mutex and page-table probe of Fix; hot
// single-page caches (the tree's root frame) use it on every descent.
func (p *Pager) TryRepin(f *Frame) bool {
	for {
		n := f.pin.Load()
		if n <= 0 {
			return false
		}
		if f.pin.CompareAndSwap(n, n+1) {
			p.pins.Inc(uint64(f.id))
			return true
		}
	}
}

// MarkDirty records that the frame was modified under lsn. The caller
// must hold the frame's write latch.
func (p *Pager) MarkDirty(f *Frame, lsn uint64) {
	f.dirty.Store(true)
	if lsn > f.data.LSN() {
		f.data.SetLSN(lsn)
	}
}

// makeRoom ensures the shard has room for one more frame, evicting a
// CLOCK victim if the shard is at capacity. It is called with the
// shard mutex held. held=true means the mutex is still held and the
// caller may insert. held=false means the mutex was released for
// eviction I/O (the fault point, a dirty-victim flush, and any backoff
// sleeps all run unlocked, so a crash panic unwinds without wedging
// the shard); the caller must re-check the page table. grow=true asks
// the caller to insert past capacity this once — the graceful
// degradation for a transient eviction fault or a flush failure.
//
//vet:coldpath -- runs only on a pool miss with a full shard; the victim flush I/O dominates the bookkeeping allocations
func (p *Pager) makeRoom(sh *shard) (held, grow bool) {
	if sh.cap <= 0 || len(sh.frames) < sh.cap {
		return true, false
	}
	f := p.clockPick(sh)
	if f == nil {
		return true, false // everything pinned: grow past capacity
	}
	// evicting keeps other evictors off the frame while the mutex is
	// down; a concurrent Fix may still resurrect it, which the
	// post-flush re-check honours.
	f.evicting = true
	sh.unlock()

	var flushErr error
	wasDirty := uint64(0)
	faulted := p.injector().Hit(fault.PagerEvict) != nil
	// A flush clears the dirty bit when it copies the image, before its
	// write lands: the decision is taken under flushMu, so a frame never
	// leaves the pool while a write of it is in flight (a miss would read
	// the older disk image).
	f.flushMu.Lock()
	if !faulted && f.dirty.Load() {
		flushErr = p.flushLocked(f, make(map[PageID]bool))
		if flushErr == nil {
			p.stats.DirtyEvictions.Add(1)
			wasDirty = 1
		}
	}

	sh.lock(&p.stats)
	f.evicting = false
	evicted := false
	if !faulted && flushErr == nil &&
		f.pin.Load() == 0 && !f.dirty.Load() && sh.frames[f.id] == f {
		sh.remove(f)
		p.stats.Evictions.Add(1)
		evicted = true
	}
	sh.unlock()
	f.flushMu.Unlock()
	if evicted && p.ring != nil {
		p.ring.Emit(obs.EvPageEvict, uint64(f.id), wasDirty)
	}
	return false, faulted || flushErr != nil
}

// depTarget is the careful-write state of a page other pages wait on.
// Images are numbered in the order they are taken for writing, so an
// edge can name the first image that carries the change it waits for.
type depTarget struct {
	images  uint64 // images of the page taken for writing so far
	durable uint64 // the highest-numbered of them known to be on media
	waiters int    // edges that point at the page
}

// writtenImage is a target image written but not yet known to be on
// media: epoch is syncEpoch as read after its write returned.
type writtenImage struct {
	t     *depTarget
	image uint64
	epoch uint64
}

// AddWriteDep records that page must not reach disk (by flush or
// eviction) or be stamped free before the next image of dependsOn is on
// media. This is the careful-writing primitive (paper §5, after
// Lomet–Tuttle): a MOVE logs only keys and a split logs no cells,
// because the page they empty cannot overtake the page they fill. The
// caller holds dependsOn's write latch, after the change page's image
// will rely on, so dependsOn's next image carries it; and must have
// called PrepareWriteDep if dependsOn may already wait on page.
func (p *Pager) AddWriteDep(page, dependsOn PageID) {
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	defer p.depMu.Unlock()
	defer invariant.LockRelease("storage.dep")
	t := p.targets[dependsOn]
	if t == nil {
		t = &depTarget{}
		p.targets[dependsOn] = t
	}
	need := t.images + 1
	s := p.deps[page]
	if s == nil {
		s = make(map[PageID]uint64)
		p.deps[page] = s
	}
	if old, ok := s[dependsOn]; !ok {
		t.waiters++
		s[dependsOn] = need
	} else if need > old {
		s[dependsOn] = need
	}
}

// PrepareWriteDep makes page's current image durable if dependsOn
// already waits on page, directly or through other pages, so that the
// edge page -> dependsOn about to be added closes no cycle. Call it
// before changing page, holding no latch: a unit that moves a page's
// records back into the page it was split from meets the split's edge
// pointing the other way.
func (p *Pager) PrepareWriteDep(page, dependsOn PageID) error {
	if !p.reaches(dependsOn, page) {
		return nil
	}
	if f := p.lookup(page); f != nil {
		if err := p.flushFrame(f, make(map[PageID]bool)); err != nil {
			return err
		}
	}
	return p.sync()
}

// reaches reports whether from waits on to through open edges.
func (p *Pager) reaches(from, to PageID) bool {
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	defer p.depMu.Unlock()
	defer invariant.LockRelease("storage.dep")
	if len(p.deps[from]) == 0 || p.targets[to] == nil {
		return false
	}
	seen := map[PageID]bool{from: true}
	stack := []PageID{from}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dep, need := range p.deps[id] {
			if p.targets[dep].durable >= need || seen[dep] {
				continue
			}
			if dep == to {
				return true
			}
			seen[dep] = true
			stack = append(stack, dep)
		}
	}
	return false
}

// openDeps drops page's satisfied edges and returns the pages it still
// waits on, in ascending order (deterministic flush cascades for the
// crash sweep).
func (p *Pager) openDeps(page PageID) []PageID {
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	defer p.depMu.Unlock()
	defer invariant.LockRelease("storage.dep")
	var open []PageID
	for dep, need := range p.deps[page] {
		t := p.targets[dep]
		if t.durable < need {
			open = append(open, dep)
			continue
		}
		delete(p.deps[page], dep)
		if t.waiters--; t.waiters == 0 {
			delete(p.targets, dep)
		}
	}
	if len(p.deps[page]) == 0 {
		delete(p.deps, page)
	}
	slices.Sort(open)
	return open
}

// depWait classifies page's open edges after their targets were
// flushed: toSync reports one whose image is written and waits only for
// a Sync; unwritten lists targets with no such image yet.
func (p *Pager) depWait(page PageID) (toSync bool, unwritten []PageID) {
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	defer p.depMu.Unlock()
	defer invariant.LockRelease("storage.dep")
	for dep, need := range p.deps[page] {
		switch t := p.targets[dep]; {
		case t.durable >= need:
		case t.images >= need:
			toSync = true
		default:
			unwritten = append(unwritten, dep)
		}
	}
	return toSync, unwritten
}

// takeImage numbers the image of id about to be written, if some page
// waits on id. The caller holds id's frame latch (or, deallocating,
// its flushMu with the frame about to leave the pool).
func (p *Pager) takeImage(id PageID) (*depTarget, uint64) {
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	defer p.depMu.Unlock()
	defer invariant.LockRelease("storage.dep")
	t := p.targets[id]
	if t == nil {
		return nil, 0
	}
	t.images++
	return t, t.images
}

// wrote records that a numbered image's write returned; the next Sync
// to begin makes it durable.
func (p *Pager) wrote(t *depTarget, image uint64) {
	if t == nil {
		return
	}
	epoch := p.syncEpoch.Load()
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	p.unsynced = append(p.unsynced, writtenImage{t: t, image: image, epoch: epoch})
	invariant.LockRelease("storage.dep")
	p.depMu.Unlock()
}

// sync forces the page file to media and marks durable every target
// image whose write returned before it began: one Sync is the barrier
// for every dependency written ahead of it, whoever wrote it.
func (p *Pager) sync() error {
	epoch := p.syncEpoch.Add(1)
	if err := p.disk.Sync(); err != nil {
		return err
	}
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	defer p.depMu.Unlock()
	defer invariant.LockRelease("storage.dep")
	kept := p.unsynced[:0]
	for _, w := range p.unsynced {
		if w.epoch >= epoch {
			kept = append(kept, w)
		} else if w.image > w.t.durable {
			w.t.durable = w.image
		}
	}
	clear(p.unsynced[len(kept):])
	p.unsynced = kept
	return nil
}

// flushFrame writes the frame to disk, first flushing (in dependency
// order) every page it carefully depends on, then the log up to the
// frame's pageLSN. visiting guards against dependency cycles. It is
// called with no shard mutex held; per-frame flushMu serialises
// concurrent flushes of the same page so an older image can never
// overtake a newer one on disk.
func (p *Pager) flushFrame(f *Frame, visiting map[PageID]bool) error {
	if visiting[f.id] {
		return fmt.Errorf("storage: careful-write dependency cycle through page %d", f.id)
	}
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	return p.flushLocked(f, visiting)
}

// flushLocked is flushFrame with f's flushMu held.
func (p *Pager) flushLocked(f *Frame, visiting map[PageID]bool) error {
	visiting[f.id] = true
	defer delete(visiting, f.id)

	if err := p.flushDeps(f.id, visiting); err != nil {
		return err
	}
	if !f.dirty.Load() {
		return nil
	}
	// A frame deallocated while we waited on flushMu must not be
	// resurrected on disk by a late write (Deallocate removes the frame
	// from its shard under this same flushMu).
	sh := p.shardFor(f.id)
	sh.lock(&p.stats)
	resident := sh.frames[f.id] == f
	sh.unlock()
	if !resident {
		return nil
	}

	// Copy the image under the read latch and clear dirty inside the
	// latch: a writer that re-dirties the page afterwards re-sets the
	// bit, so no update is ever lost to the flush. A writer installs a
	// dependency under the write latch together with the change that
	// needs it, so one that arrived after flushDeps is seen here and
	// flushed before the image is taken.
	f.RLock()
	for len(p.openDeps(f.id)) > 0 {
		f.RUnlock()
		if err := p.flushDeps(f.id, visiting); err != nil {
			return err
		}
		f.RLock()
	}
	lsn := f.data.LSN()
	img := append([]byte(nil), f.data...)
	target, image := p.takeImage(f.id)
	f.dirty.Store(false)
	f.RUnlock()

	if err := p.retryIO("flush", f.id, func() error {
		if err := p.injector().Hit(fault.PagerFlush); err != nil {
			return err
		}
		if p.wal != nil {
			if err := p.wal.FlushTo(lsn); err != nil {
				return err
			}
			if invariant.Enabled {
				if d, ok := p.wal.(interface{ DurableLSN() uint64 }); ok {
					invariant.AssertLSN(lsn, d.DurableLSN(), uint64(f.id))
				}
			}
		}
		return p.disk.Write(f.id, img)
	}); err != nil {
		f.dirty.Store(true)
		return err
	}
	p.wrote(target, image)
	return nil
}

// flushDeps writes every page that page id waits on, directly or
// through other pages, in flushOrder, and Syncs when an image id waits
// on is written but not yet covered, until id waits on nothing: an edge
// registered while the previous batch was flushing is picked up by the
// re-check, and a target another flusher already wrote and synced costs
// nothing. Called with id's flushMu held (or, deallocating, with
// id out of every writer's reach).
func (p *Pager) flushDeps(id PageID, visiting map[PageID]bool) error {
	for {
		open := p.openDeps(id)
		if len(open) == 0 {
			return nil
		}
		for _, dep := range p.flushOrder(open) {
			if df := p.lookup(dep); df != nil {
				if err := p.flushFrame(df, visiting); err != nil {
					return err
				}
			}
		}
		toSync, unwritten := p.depWait(id)
		for _, dep := range unwritten {
			// Only an edge registered since names a target not yet
			// written, and its target is dirty: the next pass writes
			// it. AddWriteDep runs under the target's latch with its
			// change, a flush numbers the image before it clears the
			// dirty bit, eviction writes a frame before it leaves the
			// pool and Deallocate numbers the free stamp before: a
			// target found clean or gone and still unwritten after
			// that would never be written.
			if df := p.lookup(dep); df != nil && df.dirty.Load() {
				continue
			}
			if _, still := p.depWait(id); slices.Contains(still, dep) {
				return fmt.Errorf("storage: page %d waits on an image of page %d that is never written", id, dep)
			}
		}
		if toSync {
			// Careful-write barrier: the OS may reorder file writes
			// across a power failure, so the dependency images must be
			// forced to media before this page's image may land (no-op
			// on the in-memory backend, where Write is already stable).
			if err := p.sync(); err != nil {
				return err
			}
		}
	}
}

// FlushPage forces page id (and its careful-write dependencies) to
// disk. It is a no-op for clean or non-resident pages. The caller must
// not hold the frame's latch.
func (p *Pager) FlushPage(id PageID) error {
	f := p.lookup(id)
	if f == nil || !f.dirty.Load() {
		return nil
	}
	return p.flushFrame(f, make(map[PageID]bool))
}

// FlushAll forces every dirty frame to media (checkpoint support),
// including the frame of every page change that was logged before the
// call, even if its writer has yet to mark it dirty. It writes in
// flushOrder — a page after everything it waits on — so the flushes
// share one Sync per level of the dependency chains instead of one per
// dependent page, and ends with one Sync whenever it wrote a page: a
// checkpoint truncates the log behind the pages it flushed, so they
// must be on media, not only written.
func (p *Pager) FlushAll() error {
	var ids []PageID
	for _, sh := range p.shards {
		sh.lock(&p.stats)
		for id, f := range sh.frames {
			// A pinned clean frame may belong to a writer that has logged
			// its change and not yet marked the frame dirty.
			if f.dirty.Load() || f.pin.Load() > 0 {
				ids = append(ids, id)
			}
		}
		sh.unlock()
	}
	wrote := false
	for _, id := range p.flushOrder(ids) {
		f := p.lookup(id)
		if f == nil {
			continue
		}
		if !f.dirty.Load() {
			// Writers log, change the page and mark it dirty under the
			// frame's write latch, so passing through the latch settles
			// whether a change logged before this call is still on its way.
			f.RLock()
			dirty := f.dirty.Load()
			f.RUnlock()
			if !dirty {
				continue // clean, or flushed as a dependency of an earlier frame
			}
		}
		if err := p.flushFrame(f, make(map[PageID]bool)); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return nil
	}
	return p.sync()
}

// flushOrder returns ids and every page they wait on through open
// edges, each after everything it waits on (by the length of the
// longest chain of open edges that starts at it, then by page id, so
// the order is deterministic). Written in this order, the pages of one
// level share a Sync — the first of the next level to be flushed finds
// its targets written and syncs once for all of them — so a dependency
// graph costs one Sync per level, not one per page that waits. A run of
// splits in which each new page splits again before a flush makes a
// chain as long as the run, and each of its links is a barrier of its
// own.
func (p *Pager) flushOrder(ids []PageID) []PageID {
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	defer p.depMu.Unlock()
	defer invariant.LockRelease("storage.dep")
	level := make(map[PageID]int, len(ids))
	var depth func(id PageID) int
	depth = func(id PageID) int {
		if l, ok := level[id]; ok {
			return l
		}
		level[id] = 0 // a cycle ends here; flushFrame reports it
		l := 0
		for dep, need := range p.deps[id] {
			if p.targets[dep].durable < need {
				l = max(l, depth(dep)+1)
			}
		}
		level[id] = l
		return l
	}
	for _, id := range ids {
		depth(id)
	}
	order := make([]PageID, 0, len(level))
	for id := range level {
		order = append(order, id)
	}
	slices.SortFunc(order, func(a, b PageID) int {
		if c := cmp.Compare(level[a], level[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Close verifies the pool is quiescent (every pin taken must have been
// released), then syncs and closes the disk backend. The sync and close
// run even when pins leaked, so a buggy shutdown path still releases
// file descriptors deterministically; all failures are joined into the
// returned error. Close does not flush dirty frames; callers wanting
// their contents durable run FlushAll first.
func (p *Pager) Close() error {
	leaked := make(map[PageID]bool)
	for _, sh := range p.shards {
		sh.lock(&p.stats)
		for id, f := range sh.frames {
			if f.pin.Load() > 0 {
				leaked[id] = true
			}
		}
		sh.unlock()
	}
	for _, page := range p.pins.Leaks() {
		leaked[PageID(page)] = true
	}
	var pinErr error
	if len(leaked) > 0 {
		ids := make([]PageID, 0, len(leaked))
		for id := range leaked {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		pinErr = fmt.Errorf("storage: close with leaked pins on pages %v", ids)
	}
	return errors.Join(pinErr, p.disk.Sync(), p.disk.Close())
}

// Allocate reserves the lowest free page id and returns a pinned,
// formatted frame for it. The allocation itself is volatile until the
// caller logs it (or the page is flushed).
func (p *Pager) Allocate(typ PageType) (*Frame, error) {
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	id := p.free.Allocate()
	invariant.LockRelease("storage.alloc")
	p.allocMu.Unlock()
	return p.fixFresh(id, typ)
}

// AllocateEnd reserves a page past the high-water mark (new-place
// internal pages live in their own region, per §6 of the paper).
func (p *Pager) AllocateEnd(typ PageType) (*Frame, error) {
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	id := p.free.AllocateEnd()
	invariant.LockRelease("storage.alloc")
	p.allocMu.Unlock()
	return p.fixFresh(id, typ)
}

// AllocateIn reserves the first free page in the open interval
// (lo, hi), returning nil (no error) when the interval has no free
// page. This is Find-Free-Space's placement primitive.
func (p *Pager) AllocateIn(lo, hi PageID, typ PageType) (*Frame, error) {
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	id := p.free.FirstFreeIn(lo, hi)
	if id == InvalidPage {
		invariant.LockRelease("storage.alloc")
		p.allocMu.Unlock()
		return nil, nil
	}
	p.free.MarkAllocated(id)
	invariant.LockRelease("storage.alloc")
	p.allocMu.Unlock()
	return p.fixFresh(id, typ)
}

// AllocateAt reserves a specific free page id (recovery redo of an
// allocation). It fails if the page is already in use.
func (p *Pager) AllocateAt(id PageID, typ PageType) (*Frame, error) {
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	if !p.free.AllocateAt(id) {
		invariant.LockRelease("storage.alloc")
		p.allocMu.Unlock()
		return nil, fmt.Errorf("storage: page %d already allocated", id)
	}
	invariant.LockRelease("storage.alloc")
	p.allocMu.Unlock()
	return p.fixFresh(id, typ)
}

// fixFresh returns a pinned, dirty frame for the just-allocated page
// id, formatted as typ and stamped with its stable image's LSN (see
// Disk.StableLSN).
func (p *Pager) fixFresh(id PageID, typ PageType) (*Frame, error) {
	lsn := p.disk.StableLSN(id)
	sh := p.shardFor(id)
	grow := false
	for {
		sh.lock(&p.stats)
		if f, ok := sh.frames[id]; ok {
			// A stale frame for a freed page can linger after recovery
			// reads; reuse it. A pinned frame is a real allocation bug.
			if f.pin.Load() > 0 {
				sh.unlock()
				return nil, fmt.Errorf("storage: fresh page %d already resident and pinned", id)
			}
			f.pin.Add(1)
			p.pins.Inc(uint64(id))
			f.ref = true
			sh.unlock()
			f.Lock()
			lsn = max(lsn, f.data.LSN())
			FormatPage(f.data, typ, id)
			f.data.SetLSN(lsn)
			f.Unlock()
			f.dirty.Store(true)
			return f, nil
		}
		if !grow {
			held, g := p.makeRoom(sh)
			if !held {
				grow = g
				continue
			}
		}
		f := &Frame{id: id, data: make(Page, p.disk.PageSize())}
		f.pin.Store(1)
		p.pins.Inc(uint64(id))
		f.dirty.Store(true)
		FormatPage(f.data, typ, id)
		f.data.SetLSN(lsn)
		sh.insert(f)
		sh.unlock()
		return f, nil
	}
}

// Deallocate frees a page. Careful writing requires that pages whose
// contents were copied elsewhere are stable first, so Deallocate
// flushes the page's dependencies before dropping it; the WAL rule
// requires the log record covering the deallocation (lsn) to be
// durable before the stable image is stamped free, or a crash could
// leave an unredoable pointer to a wiped page. The free stamp is the
// page's next image for any page that waits on it. Pass lsn 0 for
// unlogged use.
func (p *Pager) Deallocate(id PageID, lsn uint64) error {
	sh := p.shardFor(id)
	sh.lock(&p.stats)
	f := sh.frames[id]
	if f != nil && f.pin.Load() > 0 {
		sh.unlock()
		return fmt.Errorf("storage: deallocate of pinned page %d", id)
	}
	sh.unlock()

	// Flush the pages this one depends on (its copied-out contents).
	if err := p.flushDeps(id, make(map[PageID]bool)); err != nil {
		return err
	}
	if p.wal != nil && lsn != 0 {
		if err := p.wal.FlushTo(lsn); err != nil {
			return err
		}
	}

	if f != nil {
		// flushMu fences any in-flight flush of the old image: once we
		// hold it and the frame is out of the table, a late flusher's
		// residency re-check makes its write a no-op. The frame leaves
		// the table only after the free stamp is written, so a page
		// waiting on this one either finds the frame (and waits on
		// flushMu) or finds the stamp's image recorded.
		f.flushMu.Lock()
		defer f.flushMu.Unlock()
		sh.lock(&p.stats)
		if sh.frames[id] == f && f.pin.Load() > 0 {
			sh.unlock()
			return fmt.Errorf("storage: deallocate of pinned page %d", id)
		}
		sh.unlock()
	}
	// Stamp the stable image as free (so restart scans rebuild the map)
	// BEFORE releasing the id for reuse: once Free(id) runs, a
	// concurrent Allocate may hand the id out and flush a fresh image,
	// which a late MarkFree must not overwrite.
	target, image := p.takeImage(id)
	p.disk.MarkFree(id, lsn)
	p.wrote(target, image)
	if f != nil {
		sh.lock(&p.stats)
		if sh.frames[id] == f {
			sh.remove(f)
		}
		sh.unlock()
	}

	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	p.free.Free(id)
	invariant.LockRelease("storage.alloc")
	p.allocMu.Unlock()
	return nil
}

// Crash simulates a system failure: every buffered frame, pin,
// dependency edge, and the volatile free map are lost. Only the disk
// (and whatever log the owner flushed) survives.
func (p *Pager) Crash() {
	for _, sh := range p.shards {
		sh.lock(&p.stats)
		sh.frames = make(map[PageID]*Frame)
		sh.ring = nil
		sh.slots = nil
		sh.hand = 0
		sh.unlock()
	}
	p.depMu.Lock()
	invariant.LockAcquire("storage.dep")
	p.deps = make(map[PageID]map[PageID]uint64)
	p.targets = make(map[PageID]*depTarget)
	p.unsynced = nil
	invariant.LockRelease("storage.dep")
	p.depMu.Unlock()
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	p.free = NewFreeMap()
	invariant.LockRelease("storage.alloc")
	p.allocMu.Unlock()
	p.pins.Reset()
}

// RebuildFreeMap reconstructs the allocation map from the stable page
// headers (restart analysis).
func (p *Pager) RebuildFreeMap() {
	types := p.disk.ScanTypes()
	p.allocMu.Lock()
	invariant.LockAcquire("storage.alloc")
	defer p.allocMu.Unlock()
	defer invariant.LockRelease("storage.alloc")
	p.free = NewFreeMap()
	for i, t := range types {
		if i == 0 {
			continue
		}
		if t != PageFree {
			p.free.MarkAllocated(PageID(i))
		} else if PageID(i) >= p.free.highWater {
			// keep high-water mark covering the whole extent so freed
			// holes are visible to FirstFreeIn
			p.free.highWater = PageID(i) + 1
		}
	}
}
