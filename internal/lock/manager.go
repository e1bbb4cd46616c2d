package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Space partitions the lock name space.
type Space uint8

// Lock name spaces.
const (
	SpaceTree     Space = iota + 1 // one name per tree epoch (old/new tree)
	SpacePage                      // physical pages (leaves and base pages)
	SpaceRecord                    // record-level locks (side-file entries)
	SpaceSideFile                  // the side-file table lock
)

// Resource names one lockable object.
type Resource struct {
	Space Space
	ID    uint64
}

func (r Resource) String() string {
	return fmt.Sprintf("%d/%d", r.Space, r.ID)
}

// TreeRes names a tree by epoch (the old and new trees have distinct
// lock names, §7.4).
func TreeRes(epoch uint64) Resource { return Resource{SpaceTree, epoch} }

// PageRes names a page.
func PageRes(id uint64) Resource { return Resource{SpacePage, id} }

// RecordRes names a record key (callers hash keys to 64 bits).
func RecordRes(h uint64) Resource { return Resource{SpaceRecord, h} }

// SideFileRes names the side-file table.
func SideFileRes() Resource { return Resource{SpaceSideFile, 1} }

// Errors returned by Lock.
var (
	// ErrReorgConflict is returned under Opt.ForgoOnRX when the request
	// conflicts with an RX lock: the caller must release its parent lock
	// and wait via an instant-duration RS request (§4.1.2).
	ErrReorgConflict = errors.New("lock: conflict with reorganizer RX lock")
	// ErrDeadlock is returned to the victim of a deadlock cycle.
	ErrDeadlock = errors.New("lock: deadlock victim")
	// ErrWouldBlock is returned under Opt.NoWait.
	ErrWouldBlock = errors.New("lock: would block")
	// ErrTimeout is a watchdog against lost wakeups; it should not occur
	// in correct runs.
	ErrTimeout = errors.New("lock: wait timed out")
)

// Opt modifies a single lock request.
type Opt struct {
	// Instant requests an instant-duration lock: wait until the mode
	// would be grantable, then return success without holding it.
	Instant bool
	// ForgoOnRX makes the request fail fast with ErrReorgConflict when
	// the conflict is with an RX holder (or queued RX request), per the
	// reader/updater protocols.
	ForgoOnRX bool
	// NoWait makes the request fail fast with ErrWouldBlock on any
	// conflict.
	NoWait bool
}

// Stats aggregates contention metrics; the paper's concurrency claims
// are quantified with these.
type Stats struct {
	UserWaits      atomic.Int64
	UserWaitNanos  atomic.Int64
	ReorgWaits     atomic.Int64
	ReorgWaitNanos atomic.Int64
	Deadlocks      atomic.Int64
	Forgoes        atomic.Int64
	Grants         atomic.Int64
}

type waiter struct {
	owner   uint64
	res     Resource
	mode    Mode
	instant bool
	upgrade bool
	ch      chan error
}

// holderEntry records one owner's granted mode on a resource. Holders
// are kept in a small slice rather than a map: a resource rarely has
// more than a few concurrent holders, and linear scans beat map
// hashing on the per-operation hot path.
type holderEntry struct {
	owner uint64
	mode  Mode
}

type lockHead struct {
	holders []holderEntry
	queue   []*waiter
}

// holderMode returns owner's granted mode (None if absent).
func (h *lockHead) holderMode(owner uint64) Mode {
	for i := range h.holders {
		if h.holders[i].owner == owner {
			return h.holders[i].mode
		}
	}
	return None
}

// setHolder grants or updates owner's mode, reporting whether owner is
// a new holder.
func (h *lockHead) setHolder(owner uint64, mode Mode) (added bool) {
	for i := range h.holders {
		if h.holders[i].owner == owner {
			h.holders[i].mode = mode
			return false
		}
	}
	h.holders = append(h.holders, holderEntry{owner, mode})
	return true
}

// removeHolder drops owner's grant, reporting whether it was present.
func (h *lockHead) removeHolder(owner uint64) bool {
	for i := range h.holders {
		if h.holders[i].owner == owner {
			last := len(h.holders) - 1
			h.holders[i] = h.holders[last]
			h.holders = h.holders[:last]
			return true
		}
	}
	return false
}

// ownerHeld is one owner's held index, backing ReleaseAll: the
// resources it holds, in grant order. Modes live only in the lock
// heads, and a head's holder list says whether the owner holds a
// resource, so no operation searches this list but an early release.
type ownerHeld struct {
	res []Resource
}

// remove drops res, searching from the newest end and keeping the rest
// in grant order. Early releases are lock coupling's, and coupling
// always gives back one of the two newest entries, so the search stops
// within two steps however many locks the owner holds.
func (oh *ownerHeld) remove(res Resource) {
	for i := len(oh.res) - 1; i >= 0; i-- {
		if oh.res[i] == res {
			copy(oh.res[i:], oh.res[i+1:])
			oh.res = oh.res[:len(oh.res)-1]
			return
		}
	}
}

// resSlot is one entry of the manager's open-addressing lock table.
type resSlot struct {
	head *lockHead // nil => empty slot
	res  Resource
}

// resTable maps Resource -> *lockHead with linear probing and
// backward-shift deletion. Every lock and unlock goes through it, and
// the churn (a descent inserts and deletes a head per page touched)
// makes the generic map's hashing and tombstone management the largest
// single cost on the read hot path; an inlineable probe over a
// power-of-two slot array is several times cheaper.
type resTable struct {
	slots []resSlot
	mask  uint64
	n     int
}

// resHash mixes a resource into a probe start. IDs are sequential
// (page ids, txn ids), so a multiplicative mix spreads them; Space sits
// in the top byte to separate the name spaces before mixing.
func resHash(r Resource) uint64 {
	h := r.ID ^ uint64(r.Space)<<56
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func newResTable() *resTable {
	return &resTable{slots: make([]resSlot, 256), mask: 255}
}

func (t *resTable) get(res Resource) *lockHead {
	for i := resHash(res) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.head == nil {
			return nil
		}
		if s.res == res {
			return s.head
		}
	}
}

func (t *resTable) put(res Resource, h *lockHead) {
	if uint64(t.n+1)*4 > uint64(len(t.slots))*3 {
		t.grow()
	}
	for i := resHash(res) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.head == nil {
			s.res, s.head = res, h
			t.n++
			return
		}
		if s.res == res {
			s.head = h
			return
		}
	}
}

// grow doubles the probe table and re-inserts every head.
//
//vet:coldpath -- doubling the probe table is amortized O(1) per put and a grown table never shrinks
func (t *resTable) grow() {
	old := t.slots
	t.slots = make([]resSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.n = 0
	for i := range old {
		if old[i].head != nil {
			t.put(old[i].res, old[i].head)
		}
	}
}

// del removes res, shifting later probe-chain entries back so lookups
// never need tombstones.
func (t *resTable) del(res Resource) {
	i := resHash(res) & t.mask
	for {
		s := &t.slots[i]
		if s.head == nil {
			return
		}
		if s.res == res {
			break
		}
		i = (i + 1) & t.mask
	}
	j := i
	for {
		j = (j + 1) & t.mask
		if t.slots[j].head == nil {
			break
		}
		// The entry at j may fill i iff its ideal slot is cyclically at
		// or before i (probe distance from its home to j reaches past i).
		k := resHash(t.slots[j].res) & t.mask
		if (j-k)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = resSlot{}
	t.n--
}

// Manager is the lock manager.
type Manager struct {
	mu sync.Mutex
	// trips counts acquisitions of mu (Trips' own excepted): each is
	// one trip of a caller through the lock manager.
	trips    int64
	table    *resTable
	reorg    map[uint64]bool
	aborting map[uint64]bool
	held     map[uint64]*ownerHeld // per-owner index for ReleaseAll
	waiting  map[uint64]*waiter
	stats    Stats

	// heldOwner/heldCache memoise the last m.held lookup: an operation
	// takes several locks for one owner back to back, so under m.mu a
	// one-entry cache hits almost always and skips the map.
	heldOwner uint64
	heldCache *ownerHeld

	// headPool and heldPool recycle the per-resource lock heads and
	// per-owner held indexes. Both live exactly as long as a lock is
	// held (a descent locks and unlocks a handful of pages, every
	// transaction builds and drops a held index), so without reuse the
	// lock manager dominates the allocation profile of the hot path.
	headPool []*lockHead
	heldPool []*ownerHeld

	// Timeout is the watchdog on a single wait (default 10s).
	Timeout time.Duration

	// Pre-resolved observability handles (nil when no observer is
	// wired). Set once before the manager sees traffic; the hot paths
	// check the local copy without any lookup or lock.
	hUserWait  *obs.Histogram
	hReorgWait *obs.Histogram
	ring       *obs.Ring
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		table:    newResTable(),
		reorg:    make(map[uint64]bool),
		aborting: make(map[uint64]bool),
		held:     make(map[uint64]*ownerHeld),
		waiting:  make(map[uint64]*waiter),
		Timeout:  10 * time.Second,
	}
}

// Stats returns the manager's contention counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Trips returns how many times a call has taken the manager's mutex.
// The count is a plain field written under the mutex, so reading it
// takes the mutex too (and is not itself counted).
func (m *Manager) Trips() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trips
}

// SetObserver wires the manager's observability handles: wait-time
// histograms (user and reorganizer) and the trace ring for forgo and
// deadlock-victim events. Call before the manager sees traffic; any
// argument may be nil to disable that signal.
func (m *Manager) SetObserver(userWait, reorgWait *obs.Histogram, ring *obs.Ring) {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	m.hUserWait = userWait
	m.hReorgWait = reorgWait
	m.ring = ring
}

// SetReorg flags owner as the reorganization process: it becomes the
// preferred deadlock victim and its waits are accounted separately.
func (m *Manager) SetReorg(owner uint64, isReorg bool) {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	if isReorg {
		m.reorg[owner] = true
	} else {
		delete(m.reorg, owner)
	}
}

// SetAborting flags owner as rolling back. A rollback must run to
// completion — its locks cannot be released until the undo is done, so
// victimising it would leave them held forever — and the detector
// therefore prefers any forward-running owner in the cycle. A cycle
// can always offer one: an undo descent only ever waits on X page
// locks, which only forward operations (SMOs) hold. The flag is
// cleared by ReleaseAll at end of transaction.
func (m *Manager) SetAborting(owner uint64, isAborting bool) {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	if isAborting {
		m.aborting[owner] = true
	} else {
		delete(m.aborting, owner)
	}
}

// Held returns the mode owner currently holds on res (None if none).
func (m *Manager) Held(owner uint64, res Resource) Mode {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	if h := m.table.get(res); h != nil {
		return h.holderMode(owner)
	}
	return None
}

// Lock acquires mode on res for owner, waiting if necessary.
func (m *Manager) Lock(owner uint64, res Resource, mode Mode) error {
	return m.LockOpts(owner, res, mode, Opt{})
}

// LockInstant waits until mode would be grantable without granting it
// (the paper's unconditional instant-duration request).
func (m *Manager) LockInstant(owner uint64, res Resource, mode Mode) error {
	return m.LockOpts(owner, res, mode, Opt{Instant: true})
}

// LockOpts acquires mode on res for owner under the given options.
func (m *Manager) LockOpts(owner uint64, res Resource, mode Mode, opt Opt) error {
	return m.Couple(owner, res, mode, opt, Resource{}, None)
}

// Couple is one lock-coupling step in one trip through the manager: it
// acquires mode on res for owner under opt and, only once that
// succeeds, gives back parent: it releases it when parentTo is None and
// downgrades it to parentTo otherwise. A request that blocks waits
// holding parent, as a separate lock and release would, and gives it
// back after the grant. A forgo, a deadlock, a timeout or a NoWait
// refusal leaves parent held. The zero Resource as parent means there
// is none.
func (m *Manager) Couple(owner uint64, res Resource, mode Mode, opt Opt, parent Resource, parentTo Mode) error {
	m.mu.Lock()
	m.trips++
	h := m.table.get(res)
	if h == nil {
		h = m.newHeadLocked()
		m.table.put(res, h)
	}

	cur := h.holderMode(owner)
	if !opt.Instant && cur != None && Covers(cur, mode) {
		// Already held strongly enough.
		m.handBackLocked(owner, parent, parentTo)
		m.mu.Unlock()
		return nil
	}
	eff := mode
	upgrade := false
	if !opt.Instant && cur != None {
		eff = combine(cur, mode)
		upgrade = true
	}

	if m.grantableLocked(h, owner, eff, upgrade) {
		if opt.Instant {
			m.dropIfIdleLocked(res, h)
		} else {
			m.grantLocked(h, owner, res, eff)
		}
		m.stats.Grants.Add(1)
		m.handBackLocked(owner, parent, parentTo)
		m.mu.Unlock()
		return nil
	}

	// Not immediately grantable.
	if opt.ForgoOnRX && m.rxConflictLocked(h, owner) {
		m.stats.Forgoes.Add(1)
		ring := m.ring
		m.mu.Unlock()
		if ring != nil {
			ring.Emit(obs.EvForgo, owner, res.ID)
		}
		return ErrReorgConflict
	}
	if opt.NoWait {
		m.mu.Unlock()
		return ErrWouldBlock
	}
	err := m.blockAndWait(h, owner, res, mode, eff, upgrade, opt)
	if err == nil && parent != (Resource{}) {
		m.mu.Lock()
		m.trips++
		m.handBackLocked(owner, parent, parentTo)
		m.mu.Unlock()
	}
	return err
}

// blockAndWait queues a waiter for res, runs deadlock detection, and
// sleeps until granted, aborted, or timed out. Entered with m.mu held;
// returns with it released.
//
//vet:coldpath -- a blocked request parks on a channel until a release wakes it; the wait dominates every allocation here, and the fast path never reaches this function
func (m *Manager) blockAndWait(h *lockHead, owner uint64, res Resource, mode, eff Mode, upgrade bool, opt Opt) error {
	w := &waiter{owner: owner, res: res, mode: eff, instant: opt.Instant,
		upgrade: upgrade, ch: make(chan error, 1)}
	if upgrade {
		// Upgrades jump the queue to avoid upgrade starvation.
		h.queue = append([]*waiter{w}, h.queue...)
	} else {
		h.queue = append(h.queue, w)
	}
	m.waiting[owner] = w

	// Deadlock detection on block.
	if victim := m.detectLocked(); victim != nil {
		m.abortWaitLocked(victim, ErrDeadlock)
	}

	isReorg := m.reorg[owner]
	m.mu.Unlock()

	start := time.Now()
	timeout := m.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	var err error
	select {
	case err = <-w.ch:
	case <-time.After(timeout):
		m.mu.Lock()
		m.trips++
		// Remove from the queue if still present (a grant may have
		// raced with the timeout; prefer the grant).
		select {
		case err = <-w.ch:
		default:
			var holders []string
			if h := m.table.get(res); h != nil {
				for _, e := range h.holders {
					holders = append(holders, fmt.Sprintf("%d:%v", e.owner, e.mode))
				}
				for _, q := range h.queue {
					holders = append(holders, fmt.Sprintf("q%d:%v", q.owner, q.mode))
				}
			}
			err = fmt.Errorf("%w: owner %d mode %v on %v (held/queued: %v)",
				ErrTimeout, owner, mode, res, holders)
			m.removeWaiterLocked(w)
		}
		m.mu.Unlock()
	}
	d := time.Since(start).Nanoseconds()
	if isReorg {
		m.stats.ReorgWaits.Add(1)
		m.stats.ReorgWaitNanos.Add(d)
		if h := m.hReorgWait; h != nil {
			h.RecordNanos(d)
		}
	} else {
		m.stats.UserWaits.Add(1)
		m.stats.UserWaitNanos.Add(d)
		if h := m.hUserWait; h != nil {
			h.RecordNanos(d)
		}
	}
	return err
}

// Unlock releases owner's lock on res entirely.
func (m *Manager) Unlock(owner uint64, res Resource) {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	m.unlockLocked(owner, res)
}

// Downgrade replaces owner's lock on res with a weaker mode (e.g. the
// reader protocol's S -> IS on a leaf) and wakes newly compatible
// waiters.
func (m *Manager) Downgrade(owner uint64, res Resource, to Mode) {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	m.downgradeLocked(owner, res, to)
}

// ReleaseAll drops every lock owner holds (end of transaction). The
// held index is detached before any waiters are woken: a grant during
// wakeLocked may allocate a held map from the pool, and the map being
// iterated here must not be in that pool yet.
func (m *Manager) ReleaseAll(owner uint64) {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	delete(m.aborting, owner)
	oh := m.heldOf(owner)
	if oh == nil {
		return
	}
	m.dropHeldLocked(owner)
	for _, res := range oh.res {
		if h := m.table.get(res); h != nil && h.removeHolder(owner) {
			m.wakeLocked(res, h)
			m.dropIfIdleLocked(res, h)
		}
	}
	m.recycleHeldLocked(oh)
}

// HeldResources returns a snapshot of owner's locks.
func (m *Manager) HeldResources(owner uint64) map[Resource]Mode {
	m.mu.Lock()
	m.trips++
	defer m.mu.Unlock()
	oh := m.held[owner]
	if oh == nil {
		return map[Resource]Mode{}
	}
	out := make(map[Resource]Mode, len(oh.res))
	for _, res := range oh.res {
		out[res] = m.table.get(res).holderMode(owner)
	}
	return out
}

// --- internals (all require m.mu) ---

const maxPooled = 1024

// newHeadLocked returns a recycled (empty) lock head or a fresh one.
func (m *Manager) newHeadLocked() *lockHead {
	if n := len(m.headPool); n > 0 {
		h := m.headPool[n-1]
		m.headPool = m.headPool[:n-1]
		return h
	}
	//vet:allow(hotalloc) -- pool-miss fallback; steady state recycles heads
	return &lockHead{}
}

// recycleHeadLocked returns an empty lock head to the pool.
func (m *Manager) recycleHeadLocked(h *lockHead) {
	if len(m.headPool) < maxPooled {
		h.holders = h.holders[:0]
		h.queue = nil
		m.headPool = append(m.headPool, h)
	}
}

// heldOf returns owner's held index through the one-entry cache (nil
// if owner holds nothing). Requires m.mu.
func (m *Manager) heldOf(owner uint64) *ownerHeld {
	if m.heldCache != nil && m.heldOwner == owner {
		return m.heldCache
	}
	oh := m.held[owner]
	if oh != nil {
		m.heldOwner, m.heldCache = owner, oh
	}
	return oh
}

// dropHeldLocked removes owner's held index from the map and cache.
func (m *Manager) dropHeldLocked(owner uint64) {
	delete(m.held, owner)
	if m.heldOwner == owner {
		m.heldCache = nil
	}
}

// grantLocked records owner as holding res in mode. Only a new holder
// enters the owner's held index; an upgrade changes the head alone.
func (m *Manager) grantLocked(h *lockHead, owner uint64, res Resource, mode Mode) {
	if !h.setHolder(owner, mode) {
		return
	}
	oh := m.heldOf(owner)
	if oh == nil {
		if n := len(m.heldPool); n > 0 {
			oh = m.heldPool[n-1]
			m.heldPool = m.heldPool[:n-1]
		} else {
			//vet:allow(hotalloc) -- pool-miss fallback; steady state recycles held maps
			oh = &ownerHeld{}
		}
		m.held[owner] = oh
		m.heldOwner, m.heldCache = owner, oh
	}
	oh.res = append(oh.res, res)
}

// recycleHeldLocked returns a detached per-owner held index to the pool.
func (m *Manager) recycleHeldLocked(oh *ownerHeld) {
	if oh != nil && len(m.heldPool) < maxPooled {
		oh.res = oh.res[:0]
		m.heldPool = append(m.heldPool, oh)
	}
}

// unlockLocked releases owner's lock on res, if it holds one, and
// wakes the waiters it was blocking.
func (m *Manager) unlockLocked(owner uint64, res Resource) {
	h := m.table.get(res)
	if h == nil || !h.removeHolder(owner) {
		return
	}
	if oh := m.heldOf(owner); oh != nil {
		oh.remove(res)
		if len(oh.res) == 0 {
			m.dropHeldLocked(owner)
			m.recycleHeldLocked(oh)
		}
	}
	m.wakeLocked(res, h)
	m.dropIfIdleLocked(res, h)
}

// downgradeLocked replaces owner's mode on res with to, if it holds
// res, and wakes newly compatible waiters.
func (m *Manager) downgradeLocked(owner uint64, res Resource, to Mode) {
	h := m.table.get(res)
	if h == nil || h.holderMode(owner) == None {
		return
	}
	h.setHolder(owner, to)
	m.wakeLocked(res, h)
}

// handBackLocked gives back a coupling step's parent: it releases it
// (to None) or downgrades it. The zero Resource is no parent.
func (m *Manager) handBackLocked(owner uint64, parent Resource, to Mode) {
	switch {
	case parent == Resource{}:
	case to == None:
		m.unlockLocked(owner, parent)
	default:
		m.downgradeLocked(owner, parent, to)
	}
}

// dropIfIdleLocked removes res's head from the table once nobody holds
// or waits for it.
func (m *Manager) dropIfIdleLocked(res Resource, h *lockHead) {
	if len(h.holders) == 0 && len(h.queue) == 0 {
		m.table.del(res)
		m.recycleHeadLocked(h)
	}
}

// grantableLocked reports whether owner's request for mode on h can be
// granted now. Strict FIFO: a non-upgrade request also waits behind any
// queued request.
func (m *Manager) grantableLocked(h *lockHead, owner uint64, mode Mode, upgrade bool) bool {
	if !upgrade && len(h.queue) > 0 {
		return false
	}
	for _, e := range h.holders {
		if e.owner == owner {
			continue
		}
		if !Compatible(e.mode, mode) {
			return false
		}
	}
	return true
}

// rxConflictLocked reports whether owner's conflict on h involves an RX
// lock (held or queued ahead), triggering the forgo protocol.
func (m *Manager) rxConflictLocked(h *lockHead, owner uint64) bool {
	for _, e := range h.holders {
		if e.owner != owner && e.mode == RX {
			return true
		}
	}
	for _, w := range h.queue {
		if w.owner != owner && w.mode == RX {
			return true
		}
	}
	return false
}

// wakeLocked grants queued requests on res in FIFO order until the head
// cannot be granted.
func (m *Manager) wakeLocked(res Resource, h *lockHead) {
	for len(h.queue) > 0 {
		w := h.queue[0]
		if !m.grantableHeadLocked(h, w) {
			return
		}
		h.queue = h.queue[1:]
		delete(m.waiting, w.owner)
		if !w.instant {
			m.grantLocked(h, w.owner, res, combine(h.holderMode(w.owner), w.mode))
		}
		m.stats.Grants.Add(1)
		w.ch <- nil
	}
}

// grantableHeadLocked checks the queue head against holders only.
func (m *Manager) grantableHeadLocked(h *lockHead, w *waiter) bool {
	for _, e := range h.holders {
		if e.owner == w.owner {
			continue
		}
		if !Compatible(e.mode, w.mode) {
			return false
		}
	}
	return true
}

func (m *Manager) removeWaiterLocked(w *waiter) {
	h := m.table.get(w.res)
	if h == nil {
		return
	}
	for i, q := range h.queue {
		if q == w {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			break
		}
	}
	delete(m.waiting, w.owner)
	// Removing a blocker may make successors grantable.
	m.wakeLocked(w.res, h)
}

func (m *Manager) abortWaitLocked(w *waiter, err error) {
	m.stats.Deadlocks.Add(1)
	if m.ring != nil {
		m.ring.Emit(obs.EvDeadlockVictim, w.owner, w.res.ID)
	}
	m.removeWaiterLocked(w)
	w.ch <- err
}

// detectLocked builds the waits-for graph and returns the waiter to
// victimise, or nil. An owner waits for (a) every holder of its
// resource with an incompatible mode and (b) every waiter queued ahead
// of it (strict FIFO makes those real blockers). The victim is a
// reorganizer in the cycle if one exists (§4.1: "we always force the
// reorganizer to give up"), else the youngest (largest id) owner.
func (m *Manager) detectLocked() *waiter {
	edges := make(map[uint64]map[uint64]bool)
	addEdge := func(from, to uint64) {
		if from == to {
			return
		}
		s := edges[from]
		if s == nil {
			s = make(map[uint64]bool)
			edges[from] = s
		}
		s[to] = true
	}
	for owner, w := range m.waiting {
		h := m.table.get(w.res)
		if h == nil {
			continue
		}
		for _, e := range h.holders {
			if e.owner != owner && !Compatible(e.mode, w.mode) {
				addEdge(owner, e.owner)
			}
		}
		for _, q := range h.queue {
			if q == w {
				break
			}
			if q.owner != owner {
				addEdge(owner, q.owner)
			}
		}
	}
	// Find a cycle via DFS.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[uint64]int)
	var stack []uint64
	var cycle []uint64
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		color[u] = grey
		stack = append(stack, u)
		for v := range edges[u] {
			switch color[v] {
			case white:
				if dfs(v) {
					return true
				}
			case grey:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == v {
						break
					}
				}
				return true
			}
		}
		color[u] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for u := range edges {
		if color[u] == white && dfs(u) {
			break
		}
	}
	if len(cycle) == 0 {
		return nil
	}
	var victim uint64
	var found bool
	for _, o := range cycle {
		if m.reorg[o] && m.waiting[o] != nil {
			victim, found = o, true
			break
		}
	}
	if !found {
		for _, o := range cycle {
			if m.waiting[o] == nil || m.aborting[o] {
				continue
			}
			if !found || o > victim {
				victim, found = o, true
			}
		}
	}
	if !found {
		// Every waiting member is rolling back (should be unreachable:
		// undo waits only on forward-held X locks); victimise the
		// youngest rather than leave the cycle undetected.
		for _, o := range cycle {
			if m.waiting[o] == nil {
				continue
			}
			if !found || o > victim {
				victim, found = o, true
			}
		}
	}
	if !found {
		return nil
	}
	return m.waiting[victim]
}
