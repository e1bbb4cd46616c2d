package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	// Grants is counted per stripe under the stripe's mutex and summed
	// into this field by Manager.Stats when it is called.
	Grants atomic.Int64
}

// waiter is one queued request. queued, added and the head's queue
// change only under the stripe of res.
type waiter struct {
	owner   uint64
	res     Resource
	mode    Mode
	instant bool
	upgrade bool
	// queued is true while the request sits in its head's queue.
	queued bool
	// added is set by the grant when it made owner a new holder of res:
	// the woken owner then appends res to its own held list.
	added bool
	ch    chan error
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

// grantable reports whether owner's request for mode can be granted
// now. Strict FIFO: a non-upgrade request also waits behind any queued
// request; an upgrade, and a queue head being woken, are checked
// against the holders only.
func (h *lockHead) grantable(owner uint64, mode Mode, upgrade bool) bool {
	if !upgrade && len(h.queue) > 0 {
		return false
	}
	for _, e := range h.holders {
		if e.owner != owner && !Compatible(e.mode, mode) {
			return false
		}
	}
	return true
}

// rxConflict reports whether owner's conflict on h involves an RX lock
// (held or queued ahead), triggering the forgo protocol.
func (h *lockHead) rxConflict(owner uint64) bool {
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

// ownerHeld is one owner's held list, backing ReleaseAll: the resources
// it holds, in grant order. Modes live only in the lock heads, and a
// head's holder list says whether the owner holds a resource, so no
// operation searches this list but an early release. Only the owner's
// own goroutine reads or writes it.
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

// ownerSlot is where an owner's held list lives while it holds a lock.
// owner is atomic because any goroutine may read it to find or claim its
// own slot; held is read and written only by the goroutine of the owner
// the slot names. A slot keeps its list's storage from owner to owner,
// which is how held lists are recycled; base is the slot's first
// storage, which a list grown past maxHeldCap returns to. The padding
// keeps two slots off one cache line.
type ownerSlot struct {
	owner atomic.Uint64 // owner id + 1; 0 marks a free slot
	held  ownerHeld
	base  []Resource
	_     [cacheLine - 56]byte
}

// resSlot is one entry of a stripe's open-addressing lock table.
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

// resHash mixes a resource into a stripe and a probe start. IDs are
// sequential (page ids, txn ids), so a multiplicative mix spreads them;
// Space sits in the top byte to separate the name spaces before mixing.
// The stripe is the product's top bits (which the final xor leaves as
// they are), the probe start its low bits, so the resources of one
// stripe still spread over that stripe's table.
func resHash(r Resource) uint64 {
	h := r.ID ^ uint64(r.Space)<<56
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// init gives an empty table n slots (a power of two).
func (t *resTable) init(n int) {
	t.slots = make([]resSlot, n)
	t.mask = uint64(n - 1)
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

const (
	// stripeBits sets the number of stripes the lock heads are split
	// into by resource hash. Measured with BenchmarkGetLockPath and the
	// benchmark's mem-hot workload on two cores (DESIGN §7).
	stripeBits = 4
	nStripes   = 1 << stripeBits
	// ownerSlots is the size of the owner-slot table. An owner's held
	// list sits in slot owner % ownerSlots unless another live owner has
	// that slot; owner ids are handed out in sequence, so owners that
	// run at the same time rarely collide.
	ownerSlots = 64
	cacheLine  = 64
	// stripeTableSlots is the initial size of each stripe's lock table.
	stripeTableSlots = 32
	// maxPooled caps each stripe's pool of recycled lock heads.
	maxPooled = 64
	// heldChunk is the room each owner slot starts with, in locks: a
	// point operation holds three or four, a scan one more per leaf.
	heldChunk = 32
	// maxHeldCap caps the capacity of a held list a slot keeps: a list
	// grown by one large transaction (a batch, a long delete) goes to
	// the collector and the slot returns to its first storage.
	maxHeldCap = 256
)

// stripeState is one stripe of the manager: the lock heads of the
// resources that hash to it and everything a grant on them touches,
// all under mu.
type stripeState struct {
	mu sync.Mutex
	// trips counts the calls whose first critical section is this
	// stripe's; grants counts the requests granted here. Trips and
	// Stats sum them.
	trips  int64
	grants int64
	table  resTable
	// heads recycles empty lock heads. A head lives exactly as long as
	// its resource is locked (a descent locks and unlocks a handful of
	// pages), so without reuse the lock manager would dominate the
	// allocation profile of the hot path.
	heads []*lockHead
	// waiting maps an owner to its queued request on this stripe.
	waiting map[uint64]*waiter
}

// stripe pads a stripeState to whole cache lines, so that two stripes'
// mutexes never share one.
type stripe struct {
	stripeState
	_ [(cacheLine - unsafe.Sizeof(stripeState{})%cacheLine) % cacheLine]byte
}

// Manager is the lock manager.
//
// Its lock heads are split by resource into stripes, each under its own
// mutex, so requests on different resources do not serialise. An
// owner's held list lives outside the stripes, in an owner slot that
// only the owner's goroutine writes: an owner's calls must come from
// one goroutine at a time, as a transaction's and the reorganizer's do.
// The mutex order is simple: a call holds at most one stripe mutex at a
// time, except deadlock detection, which takes every stripe in
// ascending order and nothing else.
type Manager struct {
	stripes [nStripes]stripe
	owners  [ownerSlots]ownerSlot

	// spill holds the held lists of owners whose slot another owner had
	// when they took their first lock; nSpill counts them, so the usual
	// lookup never looks.
	spill  sync.Map // uint64 -> *ownerHeld
	nSpill atomic.Int32

	// reorg and aborting flag owners (values are struct{}): set rarely,
	// read on the blocking path and by deadlock detection. nAborting
	// lets ReleaseAll skip clearing a flag nobody has.
	reorg     sync.Map
	aborting  sync.Map
	nAborting atomic.Int32

	// otherTrips counts the calls that take no stripe.
	otherTrips atomic.Int64
	stats      Stats

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
	m := &Manager{Timeout: 10 * time.Second}
	for i := range m.stripes {
		m.stripes[i].table.init(stripeTableSlots)
	}
	// Every slot starts with room for heldChunk locks, from one array,
	// so no transaction that holds fewer allocates for its list.
	chunks := make([]Resource, ownerSlots*heldChunk)
	for i := range m.owners {
		s := &m.owners[i]
		s.base = chunks[i*heldChunk : i*heldChunk : (i+1)*heldChunk]
		s.held.res = s.base
	}
	return m
}

// stripeOf returns the stripe res hashes to.
func (m *Manager) stripeOf(res Resource) *stripe {
	return &m.stripes[resHash(res)>>(64-stripeBits)]
}

// Stats returns the manager's contention counters. Grants is summed
// from the stripes when Stats is called; the other counters count as
// events happen.
func (m *Manager) Stats() *Stats {
	var grants int64
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		grants += st.grants
		st.mu.Unlock()
	}
	m.stats.Grants.Store(grants)
	return &m.stats
}

// Trips returns how many calls have gone through the manager (Trips'
// and Stats' own excepted), one per call however many stripes it
// takes. Each stripe's count is a plain field under its mutex, so
// reading them takes the mutexes too.
func (m *Manager) Trips() int64 {
	n := m.otherTrips.Load()
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		n += st.trips
		st.mu.Unlock()
	}
	return n
}

// SetObserver wires the manager's observability handles: wait-time
// histograms (user and reorganizer) and the trace ring for forgo and
// deadlock-victim events. Call before the manager sees traffic; any
// argument may be nil to disable that signal.
func (m *Manager) SetObserver(userWait, reorgWait *obs.Histogram, ring *obs.Ring) {
	m.otherTrips.Add(1)
	m.hUserWait = userWait
	m.hReorgWait = reorgWait
	m.ring = ring
}

// SetReorg flags owner as the reorganization process: it becomes the
// preferred deadlock victim and its waits are accounted separately.
func (m *Manager) SetReorg(owner uint64, isReorg bool) {
	m.otherTrips.Add(1)
	if isReorg {
		m.reorg.Store(owner, struct{}{})
	} else {
		m.reorg.Delete(owner)
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
	m.otherTrips.Add(1)
	m.setAborting(owner, isAborting)
}

func (m *Manager) setAborting(owner uint64, on bool) {
	if on {
		if _, had := m.aborting.LoadOrStore(owner, struct{}{}); !had {
			m.nAborting.Add(1)
		}
	} else if _, had := m.aborting.LoadAndDelete(owner); had {
		m.nAborting.Add(-1)
	}
}

// flagged reports whether owner is in flags (m.reorg or m.aborting).
func flagged(flags *sync.Map, owner uint64) bool {
	_, ok := flags.Load(owner)
	return ok
}

// Held returns the mode owner currently holds on res (None if none).
func (m *Manager) Held(owner uint64, res Resource) Mode {
	st := m.stripeOf(res)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.trips++
	if h := st.table.get(res); h != nil {
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

// Couple is one lock-coupling step in one call to the manager: it
// acquires mode on res for owner under opt and, only once that
// succeeds, gives back parent: it releases it when parentTo is None and
// downgrades it to parentTo otherwise. A request that blocks waits
// holding parent, as a separate lock and release would, and gives it
// back after the grant. A forgo, a deadlock, a timeout or a NoWait
// refusal leaves parent held. The zero Resource as parent means there
// is none. The grant takes res's stripe; the hand-back happens in the
// same critical section when parent hashes to that stripe and in a
// second one otherwise.
func (m *Manager) Couple(owner uint64, res Resource, mode Mode, opt Opt, parent Resource, parentTo Mode) error {
	st := m.stripeOf(res)
	st.mu.Lock()
	st.trips++
	h := st.table.get(res)
	if h == nil {
		h = st.newHeadLocked()
		st.table.put(res, h)
	}

	cur := h.holderMode(owner)
	if !opt.Instant && cur != None && Covers(cur, mode) {
		// Already held strongly enough.
		m.handBack(st, owner, parent, parentTo)
		return nil
	}
	eff := mode
	upgrade := false
	if !opt.Instant && cur != None {
		eff = combine(cur, mode)
		upgrade = true
	}

	if h.grantable(owner, eff, upgrade) {
		added := false
		switch {
		case opt.Instant:
			st.dropIfIdleLocked(res, h)
		case upgrade:
			// The lattice's supremum can conflict with less than the
			// mode it replaces (IS to R), so a queued request may have
			// become grantable.
			h.setHolder(owner, eff)
			st.wakeLocked(res, h)
		default:
			added = h.setHolder(owner, eff)
		}
		st.grants++
		m.handBack(st, owner, parent, parentTo)
		if added {
			m.addHeld(owner, res)
		}
		return nil
	}

	// Not immediately grantable.
	if opt.ForgoOnRX && h.rxConflict(owner) {
		st.mu.Unlock()
		m.stats.Forgoes.Add(1)
		if ring := m.ring; ring != nil {
			ring.Emit(obs.EvForgo, owner, res.ID)
		}
		return ErrReorgConflict
	}
	if opt.NoWait {
		st.mu.Unlock()
		return ErrWouldBlock
	}
	err := m.blockAndWait(st, h, owner, res, mode, eff, upgrade, opt)
	if err == nil && parent != (Resource{}) {
		pst := m.stripeOf(parent)
		pst.mu.Lock()
		m.handBack(pst, owner, parent, parentTo)
	}
	return err
}

// handBack gives back a coupling step's parent and leaves st, which the
// caller holds: in st's own critical section when parent hashes to st,
// in a second one otherwise. The zero Resource is no parent.
func (m *Manager) handBack(st *stripe, owner uint64, parent Resource, to Mode) {
	if parent == (Resource{}) {
		st.mu.Unlock()
		return
	}
	pst := m.stripeOf(parent)
	released := false
	if pst == st {
		released = st.handBackLocked(owner, parent, to)
	}
	st.mu.Unlock()
	if pst != st {
		pst.mu.Lock()
		released = pst.handBackLocked(owner, parent, to)
		pst.mu.Unlock()
	}
	if released {
		m.removeHeld(owner, parent)
	}
}

// blockAndWait queues a waiter for res, runs deadlock detection, and
// sleeps until granted, aborted, or timed out. Entered with st (res's
// stripe) held; returns with it released. A grant that made owner a
// new holder is appended to owner's held list here, by the woken
// owner itself.
//
//vet:coldpath -- a blocked request parks on a channel until a release wakes it; the wait dominates every allocation here, and the fast path never reaches this function
func (m *Manager) blockAndWait(st *stripe, h *lockHead, owner uint64, res Resource, mode, eff Mode, upgrade bool, opt Opt) error {
	w := &waiter{owner: owner, res: res, mode: eff, instant: opt.Instant,
		upgrade: upgrade, queued: true, ch: make(chan error, 1)}
	if upgrade {
		// Upgrades jump the queue to avoid upgrade starvation.
		h.queue = append([]*waiter{w}, h.queue...)
	} else {
		h.queue = append(h.queue, w)
	}
	if st.waiting == nil {
		st.waiting = make(map[uint64]*waiter)
	}
	st.waiting[owner] = w
	st.mu.Unlock()

	// Deadlock detection on block, over all stripes at once. The request
	// was queued before its stripe was let go, so a later blocker's
	// detection sees it; if it has been granted or victimised since, it
	// closes no cycle and there is nothing to look for. Requests that
	// block at the same time can close more than one cycle before either
	// detection runs, so each breaks every cycle it finds.
	m.lockAll()
	if w.queued {
		for victim := m.detectLocked(); victim != nil; victim = m.detectLocked() {
			m.abortWaitLocked(victim, ErrDeadlock)
		}
	}
	m.unlockAll()

	start := time.Now()
	timeout := m.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	timer := time.NewTimer(timeout)
	var err error
	select {
	case err = <-w.ch:
	case <-timer.C:
		st.mu.Lock()
		// Remove from the queue if still present (a grant may have
		// raced with the timeout; prefer the grant).
		select {
		case err = <-w.ch:
		default:
			err = st.timeoutErrorLocked(w, mode)
			st.removeWaiterLocked(w)
		}
		st.mu.Unlock()
	}
	timer.Stop()
	if err == nil && w.added {
		m.addHeld(owner, res)
	}
	d := time.Since(start).Nanoseconds()
	if flagged(&m.reorg, owner) {
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
	st := m.stripeOf(res)
	st.mu.Lock()
	st.trips++
	released := st.unlockLocked(owner, res)
	st.mu.Unlock()
	if released {
		m.removeHeld(owner, res)
	}
}

// Downgrade replaces owner's lock on res with a weaker mode (e.g. the
// reader protocol's S -> IS on a leaf) and wakes newly compatible
// waiters.
func (m *Manager) Downgrade(owner uint64, res Resource, to Mode) {
	st := m.stripeOf(res)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.trips++
	st.downgradeLocked(owner, res, to)
}

// ReleaseAll drops every lock owner holds (end of transaction) and
// clears its aborting flag. It takes each stripe the held list touches
// once: each pass takes the stripe of the first resource left, releases
// every listed resource of that stripe and keeps the rest for the next
// pass.
func (m *Manager) ReleaseAll(owner uint64) {
	if m.nAborting.Load() > 0 {
		m.setAborting(owner, false)
	}
	oh := m.heldOf(owner)
	if oh == nil {
		m.otherTrips.Add(1)
		return
	}
	trip := int64(1)
	for rest := oh.res; len(rest) > 0; {
		st := m.stripeOf(rest[0])
		st.mu.Lock()
		st.trips += trip
		trip = 0
		keep := rest[:0]
		for _, res := range rest {
			if m.stripeOf(res) != st {
				keep = append(keep, res)
			} else if h := st.table.get(res); h != nil && h.removeHolder(owner) {
				st.wakeLocked(res, h)
				st.dropIfIdleLocked(res, h)
			}
		}
		st.mu.Unlock()
		rest = keep
	}
	m.detachHeld(owner, oh)
}

// HeldResources returns a snapshot of owner's locks. Call it from
// owner's goroutine, or once owner makes no calls.
func (m *Manager) HeldResources(owner uint64) map[Resource]Mode {
	oh := m.heldOf(owner)
	if oh == nil {
		m.otherTrips.Add(1)
		return map[Resource]Mode{}
	}
	out := make(map[Resource]Mode, len(oh.res))
	trip := int64(1)
	for _, res := range oh.res {
		st := m.stripeOf(res)
		st.mu.Lock()
		st.trips += trip
		trip = 0
		out[res] = st.table.get(res).holderMode(owner)
		st.mu.Unlock()
	}
	return out
}

// --- owner-local held lists (only the owner's goroutine calls these) ---

// heldOf returns owner's held list, nil if owner holds nothing.
func (m *Manager) heldOf(owner uint64) *ownerHeld {
	if s := &m.owners[owner%ownerSlots]; s.owner.Load() == owner+1 {
		return &s.held
	}
	if m.nSpill.Load() == 0 {
		return nil
	}
	return m.spilled(owner)
}

// addHeld appends res to owner's held list, giving owner a list first
// if it holds nothing yet: its slot's, or a spilled one when another
// owner has the slot.
func (m *Manager) addHeld(owner uint64, res Resource) {
	oh := m.heldOf(owner)
	if oh == nil {
		if s := &m.owners[owner%ownerSlots]; s.owner.CompareAndSwap(0, owner+1) {
			oh = &s.held
		} else {
			oh = m.spillHeld(owner)
		}
	}
	oh.res = append(oh.res, res)
}

// removeHeld drops res from owner's held list, and the list itself
// once it is empty.
func (m *Manager) removeHeld(owner uint64, res Resource) {
	if oh := m.heldOf(owner); oh != nil {
		oh.remove(res)
		if len(oh.res) == 0 {
			m.detachHeld(owner, oh)
		}
	}
}

// detachHeld empties owner's list and frees its slot (or spill entry).
// A slot keeps its list's storage for the next owner unless a large
// transaction grew it past maxHeldCap.
func (m *Manager) detachHeld(owner uint64, oh *ownerHeld) {
	s := &m.owners[owner%ownerSlots]
	if oh != &s.held {
		m.unspill(owner)
		return
	}
	if cap(oh.res) > maxHeldCap {
		oh.res = s.base
	}
	oh.res = oh.res[:0]
	s.owner.Store(0)
}

// spilled returns the held list of an owner that did not get its slot.
//
//vet:coldpath -- only an owner whose slot another live owner holds gets here
func (m *Manager) spilled(owner uint64) *ownerHeld {
	if v, ok := m.spill.Load(owner); ok {
		return v.(*ownerHeld)
	}
	return nil
}

// spillHeld gives a list to an owner whose slot another owner holds.
//
//vet:coldpath -- slots collide only when live owner ids are ownerSlots apart
func (m *Manager) spillHeld(owner uint64) *ownerHeld {
	oh := &ownerHeld{}
	m.spill.Store(owner, oh)
	m.nSpill.Add(1)
	return oh
}

// unspill drops a spilled owner's entry.
//
//vet:coldpath -- the release side of spillHeld
func (m *Manager) unspill(owner uint64) {
	if _, ok := m.spill.LoadAndDelete(owner); ok {
		m.nSpill.Add(-1)
	}
}

// --- stripe internals (all require st.mu) ---

// newHeadLocked returns a recycled (empty) lock head or a fresh one.
func (st *stripe) newHeadLocked() *lockHead {
	if n := len(st.heads); n > 0 {
		h := st.heads[n-1]
		st.heads = st.heads[:n-1]
		return h
	}
	//vet:allow(hotalloc) -- pool-miss fallback; steady state recycles heads
	return &lockHead{}
}

// dropIfIdleLocked removes res's head from the table once nobody holds
// or waits for it, and recycles it.
func (st *stripe) dropIfIdleLocked(res Resource, h *lockHead) {
	if len(h.holders) == 0 && len(h.queue) == 0 {
		st.table.del(res)
		if len(st.heads) < maxPooled {
			h.holders = h.holders[:0]
			h.queue = nil
			st.heads = append(st.heads, h)
		}
	}
}

// unlockLocked releases owner's lock on res, if it holds one, wakes the
// waiters it was blocking, and reports whether it held one (the caller
// then drops res from owner's held list).
func (st *stripe) unlockLocked(owner uint64, res Resource) bool {
	h := st.table.get(res)
	if h == nil || !h.removeHolder(owner) {
		return false
	}
	st.wakeLocked(res, h)
	st.dropIfIdleLocked(res, h)
	return true
}

// handBackLocked releases owner's lock on parent (to None) or
// downgrades it, and reports whether it released one.
func (st *stripe) handBackLocked(owner uint64, parent Resource, to Mode) bool {
	if to == None {
		return st.unlockLocked(owner, parent)
	}
	st.downgradeLocked(owner, parent, to)
	return false
}

// downgradeLocked replaces owner's mode on res with to, if it holds
// res, and wakes newly compatible waiters.
func (st *stripe) downgradeLocked(owner uint64, res Resource, to Mode) {
	h := st.table.get(res)
	if h == nil || h.holderMode(owner) == None {
		return
	}
	h.setHolder(owner, to)
	st.wakeLocked(res, h)
}

// wakeLocked grants queued requests on res in FIFO order until the head
// cannot be granted. It does not touch the woken owners' held lists:
// it marks a waiter added and the owner appends for itself.
func (st *stripe) wakeLocked(res Resource, h *lockHead) {
	for len(h.queue) > 0 {
		w := h.queue[0]
		if !h.grantable(w.owner, w.mode, true) {
			return
		}
		h.queue = h.queue[1:]
		w.queued = false
		delete(st.waiting, w.owner)
		if !w.instant {
			w.added = h.setHolder(w.owner, combine(h.holderMode(w.owner), w.mode))
		}
		st.grants++
		w.ch <- nil
	}
}

// removeWaiterLocked takes w out of its head's queue and wakes the
// requests it was holding back.
func (st *stripe) removeWaiterLocked(w *waiter) {
	h := st.table.get(w.res)
	if h == nil {
		return
	}
	for i, q := range h.queue {
		if q == w {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			break
		}
	}
	w.queued = false
	delete(st.waiting, w.owner)
	// Removing a blocker may make successors grantable.
	st.wakeLocked(w.res, h)
	st.dropIfIdleLocked(w.res, h)
}

// timeoutErrorLocked describes a wait that timed out, with the holders
// and queue of its resource.
func (st *stripe) timeoutErrorLocked(w *waiter, mode Mode) error {
	var holders []string
	if h := st.table.get(w.res); h != nil {
		for _, e := range h.holders {
			holders = append(holders, fmt.Sprintf("%d:%v", e.owner, e.mode))
		}
		for _, q := range h.queue {
			holders = append(holders, fmt.Sprintf("q%d:%v", q.owner, q.mode))
		}
	}
	return fmt.Errorf("%w: owner %d mode %v on %v (held/queued: %v)",
		ErrTimeout, w.owner, mode, w.res, holders)
}

// --- deadlock detection (all stripes held) ---

// lockAll takes every stripe in ascending order: the one place the
// manager holds more than one stripe mutex.
func (m *Manager) lockAll() {
	for i := range m.stripes {
		m.stripes[i].mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for i := range m.stripes {
		m.stripes[i].mu.Unlock()
	}
}

func (m *Manager) abortWaitLocked(w *waiter, err error) {
	m.stats.Deadlocks.Add(1)
	if m.ring != nil {
		m.ring.Emit(obs.EvDeadlockVictim, w.owner, w.res.ID)
	}
	m.stripeOf(w.res).removeWaiterLocked(w)
	w.ch <- err
}

// detectLocked builds the waits-for graph and returns the waiter to
// victimise, or nil. An owner waits for (a) every holder of its
// resource with an incompatible mode and (b) every waiter queued ahead
// of it (strict FIFO makes those real blockers). The victim is a
// reorganizer in the cycle if one exists (§4.1: "we always force the
// reorganizer to give up"), else the youngest (largest id) owner.
func (m *Manager) detectLocked() *waiter {
	waiting := make(map[uint64]*waiter)
	for i := range m.stripes {
		for o, w := range m.stripes[i].waiting {
			waiting[o] = w
		}
	}
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
	for owner, w := range waiting {
		h := m.stripeOf(w.res).table.get(w.res)
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
		if flagged(&m.reorg, o) && waiting[o] != nil {
			victim, found = o, true
			break
		}
	}
	if !found {
		for _, o := range cycle {
			if waiting[o] == nil || flagged(&m.aborting, o) {
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
			if waiting[o] == nil {
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
	return waiting[victim]
}
