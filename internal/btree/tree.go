// Package btree implements the concurrent primary-index B+-tree the
// paper reorganizes: leaf pages hold the data records, internal nodes
// are (low key, child) pairs ("an internal node with n keys has n
// children", §2), leaves carry two-way side pointers, and the
// free-at-empty policy [JS93] is used — sparse pages are never
// consolidated, empty leaves are deallocated at commit.
//
// Concurrency follows §4 of the paper: readers and updaters lock-couple
// down the tree with S locks, take S/X (or IS/IX plus record locks) on
// leaves, forgo requests that conflict with the reorganizer's RX locks
// and wait via instant-duration RS requests on the parent base page.
// Structure modifications (splits, free-at-empty) are system actions
// logged with transaction id 0 and never undone.
package btree

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/pageops"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// AnchorPage is the fixed location of the database anchor ("a special
// place on the disk", §7.4) holding the root pointer, the tree-lock
// epoch, the reorganization bit, and the side-file head.
const AnchorPage storage.PageID = 1

// Anchor field offsets within the page, after the common header.
const (
	anchorRoot     = storage.HeaderSize + 0  // u32 root page id
	anchorEpoch    = storage.HeaderSize + 4  // u64 tree lock epoch
	anchorReorgBit = storage.HeaderSize + 12 // u8 internal-reorg bit
	anchorSideFile = storage.HeaderSize + 13 // u32 side-file head page
)

// ReorgHook lets the reorganizer intercept base-page updates during
// internal-page reorganization (§7.2): an updater holding X on a base
// page consults the hook, which mirrors the change into the side file
// when the reorganizer has already read past its key.
type ReorgHook interface {
	// OnBaseUpdate is called with the base-page entry operation about
	// to be applied to the old tree. When the operation must also reach
	// the side file, the hook appends it there under an IX table lock
	// and returns a non-nil release function the caller invokes after
	// applying the base change (so the table lock spans both).
	// Returning ErrSwitched means the tree switch completed while the
	// updater waited: the caller must restart against the new tree.
	OnBaseUpdate(ownerID uint64, op wal.Update) (release func(), err error)
}

// ErrSwitched tells an updater the root switch happened underneath it.
var ErrSwitched = fmt.Errorf("btree: tree switched during update")

// ErrTreeEmpty is returned by lookups on a tree with no records.
var ErrTreeEmpty = fmt.Errorf("btree: tree is empty")

// rootRef is one consistent (root, epoch) snapshot, published through
// Tree.rootSnap.
type rootRef struct {
	root  storage.PageID
	epoch uint64
}

// Tree is the primary-index B+-tree.
type Tree struct {
	pager *storage.Pager
	log   *wal.Log
	locks *lock.Manager
	txns  *txn.Manager

	mu       sync.Mutex
	root     storage.PageID
	epoch    uint64
	reorgBit bool
	sideFile storage.PageID
	hook     ReorgHook

	// rootSnap mirrors (root, epoch) for lock-free reads: Root() runs
	// at least twice per operation (the epoch-stable tree lock), and a
	// mutex there is measurable on the read hot path. Writers update it
	// under t.mu; the pointer swap publishes both fields atomically.
	rootSnap atomic.Pointer[rootRef]

	// rootFrame holds the current root's buffer frame, kept pinned by
	// the tree so every descent can skip the pager's shard mutex and
	// page-table probe. The pin also makes the frame unevictable, so
	// the cached pointer can never go stale; root switches re-point it
	// under the switch protocol. Close releases the pin.
	rootFrame atomic.Pointer[storage.Frame]

	// deferred free-at-empty leaves per transaction (processed at
	// commit, see delete.go).
	deferredMu   sync.Mutex
	deferredKeys map[uint64][]freeHint

	// hForgoWait, when non-nil, records how long forgoing descents
	// blocked on the instant-RS wait for the reorganizer (set once at
	// wiring time, before the tree sees traffic).
	hForgoWait *obs.Histogram
	// ring, when non-nil, receives leaf structure-modification events
	// (EvLeafSplit, EvLeafFree) — the daemon's cheap activity signal
	// for deciding when the occupancy picture is stale.
	ring *obs.Ring

	// smoMu keeps a checkpoint's redo point out of every structure
	// modification: a split, root split, free-at-empty or page-image
	// record is logged and only then are its pages latched and changed,
	// so LogSMO holds smoMu shared from the append through the apply,
	// and RedoPoint reads the log tail holding it exclusively. smoHook,
	// when set (tests only), runs inside that window.
	smoMu   sync.RWMutex
	smoHook func()

	// scanBufs recycles range scans' leaf copies (*scanBuf, see
	// scan.go), so a scan allocates nothing per row or per leaf.
	scanBufs sync.Pool
}

// SetObserver wires the tree's forgo-wait histogram and trace ring
// (either may be nil to disable). Call before the tree sees traffic.
func (t *Tree) SetObserver(forgoWait *obs.Histogram, ring *obs.Ring) {
	t.hForgoWait = forgoWait
	t.ring = ring
}

// Create formats a new tree: the anchor at page 1, an internal root,
// and one empty leaf, all forced to disk.
func Create(pager *storage.Pager, log *wal.Log, locks *lock.Manager, txns *txn.Manager) (*Tree, error) {
	anchor, err := pager.AllocateAt(AnchorPage, storage.PageAnchor)
	if err != nil {
		return nil, fmt.Errorf("btree: create anchor: %w", err)
	}
	root, err := pager.Allocate(storage.PageInternal)
	if err != nil {
		pager.Unfix(anchor)
		return nil, err
	}
	leaf, err := pager.Allocate(storage.PageLeaf)
	if err != nil {
		pager.Unfix(root)
		pager.Unfix(anchor)
		return nil, err
	}
	root.Lock()
	root.Data().SetAux(1) // root level 1: a base page
	if err := kv.IndexInsert(root.Data(), []byte{}, leaf.ID()); err != nil {
		root.Unlock()
		pager.Unfix(leaf)
		pager.Unfix(root)
		pager.Unfix(anchor)
		return nil, err
	}
	root.Unlock()
	pager.MarkDirty(root, 0)
	pager.MarkDirty(leaf, 0)

	t := &Tree{pager: pager, log: log, locks: locks, txns: txns,
		root: root.ID(), epoch: 1, deferredKeys: make(map[uint64][]freeHint)}
	t.rootSnap.Store(&rootRef{root: t.root, epoch: t.epoch})
	anchor.Lock()
	t.writeAnchorLocked(anchor.Data())
	anchor.Unlock()
	pager.MarkDirty(anchor, 0)

	pager.Unfix(root)
	pager.Unfix(leaf)
	pager.Unfix(anchor)
	if err := pager.FlushAll(); err != nil {
		return nil, err
	}
	txns.SetUndoer(t)
	t.cacheRoot(t.root)
	return t, nil
}

// Open reads an existing tree's anchor.
func Open(pager *storage.Pager, log *wal.Log, locks *lock.Manager, txns *txn.Manager) (*Tree, error) {
	anchor, err := pager.Fix(AnchorPage)
	if err != nil {
		return nil, err
	}
	defer pager.Unfix(anchor)
	p := anchor.Data()
	if p.Type() != storage.PageAnchor {
		return nil, fmt.Errorf("btree: page %d is %v, not an anchor", AnchorPage, p.Type())
	}
	if v := p.Version(); v != storage.PageFormatVersion {
		return nil, fmt.Errorf("btree: anchor written as page format v%d, this build reads v%d: %w",
			v, storage.PageFormatVersion, storage.ErrPageVersion)
	}
	t := &Tree{pager: pager, log: log, locks: locks, txns: txns,
		deferredKeys: make(map[uint64][]freeHint)}
	t.root = storage.PageID(binary.LittleEndian.Uint32(p[anchorRoot:]))
	t.epoch = binary.LittleEndian.Uint64(p[anchorEpoch:])
	t.reorgBit = p[anchorReorgBit] != 0
	t.sideFile = storage.PageID(binary.LittleEndian.Uint32(p[anchorSideFile:]))
	t.rootSnap.Store(&rootRef{root: t.root, epoch: t.epoch})
	txns.SetUndoer(t)
	t.cacheRoot(t.root)
	return t, nil
}

// writeAnchorLocked serialises the cached anchor fields into the page.
// Caller holds t.mu (or is single-threaded setup) and the frame latch.
func (t *Tree) writeAnchorLocked(p storage.Page) {
	binary.LittleEndian.PutUint32(p[anchorRoot:], uint32(t.root))
	binary.LittleEndian.PutUint64(p[anchorEpoch:], t.epoch)
	if t.reorgBit {
		p[anchorReorgBit] = 1
	} else {
		p[anchorReorgBit] = 0
	}
	binary.LittleEndian.PutUint32(p[anchorSideFile:], uint32(t.sideFile))
}

// flushAnchor persists the cached anchor state (switch, reorg bit and
// side-file changes are forced immediately; the anchor is tiny and
// authoritative).
func (t *Tree) flushAnchor() error {
	anchor, err := t.pager.Fix(AnchorPage)
	if err != nil {
		return err
	}
	anchor.Lock()
	t.mu.Lock()
	t.writeAnchorLocked(anchor.Data())
	t.mu.Unlock()
	anchor.Unlock()
	t.pager.MarkDirty(anchor, 0)
	t.pager.Unfix(anchor)
	return t.pager.FlushPage(AnchorPage)
}

// Root returns the current root page and tree-lock epoch as one
// consistent snapshot.
func (t *Tree) Root() (storage.PageID, uint64) {
	r := t.rootSnap.Load()
	return r.root, r.epoch
}

// ReorgState returns the reorganization bit and side-file head.
func (t *Tree) ReorgState() (bit bool, sideFile storage.PageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reorgBit, t.sideFile
}

// SetReorgHook installs (or clears) the side-file hook.
func (t *Tree) SetReorgHook(h ReorgHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = h
}

func (t *Tree) reorgHook() ReorgHook {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hook
}

// SetReorgBit flips the reorganization bit and forces the anchor.
func (t *Tree) SetReorgBit(on bool, sideFile storage.PageID) error {
	t.mu.Lock()
	t.reorgBit = on
	t.sideFile = sideFile
	t.mu.Unlock()
	return t.flushAnchor()
}

// SwitchRoot atomically installs the new tree (§7.4): the anchor's
// root pointer and epoch change together and are forced to disk. The
// caller (the reorganizer) holds the locks the protocol requires.
func (t *Tree) SwitchRoot(newRoot storage.PageID, newEpoch uint64) error {
	t.mu.Lock()
	t.root = newRoot
	t.epoch = newEpoch
	t.rootSnap.Store(&rootRef{root: newRoot, epoch: newEpoch})
	t.mu.Unlock()
	t.cacheRoot(newRoot)
	return t.flushAnchor()
}

// cacheRoot re-points the pinned root-frame cache at id. Best-effort:
// on a Fix error the cache is left empty and descents fall back to the
// pager. The new frame is published before the old pin drops, so a
// concurrent fixRoot sees either frame pinned.
func (t *Tree) cacheRoot(id storage.PageID) {
	nf, err := t.pager.Fix(id)
	if err != nil {
		nf = nil
	}
	old := t.rootFrame.Swap(nf)
	if old != nil {
		t.pager.Unfix(old)
	}
}

// fixRoot fixes the root page for a descent, taking an extra pin on
// the cached frame when it matches id. TryRepin fails only if the
// cached pin was dropped concurrently, in which case the pager slow
// path is correct.
func (t *Tree) fixRoot(id storage.PageID) (*storage.Frame, error) {
	if f := t.rootFrame.Load(); f != nil && f.ID() == id {
		if t.pager.TryRepin(f) {
			return f, nil
		}
	}
	return t.pager.Fix(id)
}

// Close releases the tree's cached root pin. It must run before the
// pager is closed: Pager.Close treats any remaining pin as a leak.
func (t *Tree) Close() {
	if f := t.rootFrame.Swap(nil); f != nil {
		t.pager.Unfix(f)
	}
}

// Pager returns the buffer pool (the reorganizer shares it).
func (t *Tree) Pager() *storage.Pager { return t.pager }

// Log returns the write-ahead log.
func (t *Tree) Log() *wal.Log { return t.log }

// Locks returns the lock manager.
func (t *Tree) Locks() *lock.Manager { return t.locks }

// Txns returns the transaction manager.
func (t *Tree) Txns() *txn.Manager { return t.txns }

// Height returns the number of levels including the leaf level.
func (t *Tree) Height() (int, error) {
	rootID, _ := t.Root()
	f, err := t.pager.Fix(rootID)
	if err != nil {
		return 0, err
	}
	defer t.pager.Unfix(f)
	return int(f.Data().Aux()) + 1, nil
}

// pageRes maps a page to its lock resource.
func pageRes(id storage.PageID) lock.Resource {
	return lock.PageRes(uint64(id))
}

// recordRes maps a record key to its lock resource (FNV-1a hash).
func recordRes(key []byte) lock.Resource {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return lock.RecordRes(h)
}

// LogSMO logs a structure modification's record and applies it,
// holding smoMu shared across both (see RedoPoint). The caller holds
// the locks that keep every other writer off the record's pages, and
// no pin on a page the record frees.
func (t *Tree) LogSMO(rec wal.Record) error {
	t.smoMu.RLock()
	defer t.smoMu.RUnlock()
	lsn := t.log.Append(rec)
	if t.smoHook != nil {
		t.smoHook()
	}
	switch r := rec.(type) {
	case wal.Split:
		return pageops.ApplySplit(t.pager, r, lsn)
	case wal.RootSplit:
		return pageops.ApplyRootSplit(t.pager, r, lsn)
	case wal.FreeChain:
		return pageops.ApplyFreeChain(t.pager, r, lsn)
	case wal.PageImages:
		return pageops.ApplyImages(t.pager, r, lsn)
	}
	return fmt.Errorf("btree: %T is not a structure modification", rec)
}

// RedoPoint returns the log tail for a checkpoint's redo point. Every
// structure modification logged below it has been applied to its pages
// by the time it returns, so a flush that starts afterwards writes them.
func (t *Tree) RedoPoint() uint64 {
	t.smoMu.Lock()
	defer t.smoMu.Unlock()
	return t.log.Tail()
}

// SetSMOHook installs fn to run inside every structure modification,
// after its record is logged and before it is applied (tests only; call
// before the tree sees traffic).
func (t *Tree) SetSMOHook(fn func()) { t.smoHook = fn }

// MaxValueSize bounds record values so a record always fits in a
// fraction of a page (splits can then always make room).
func (t *Tree) MaxValueSize() int {
	return (t.pager.PageSize()-storage.HeaderSize)/4 - kv.MaxKeySize - 2 - storage.SlotSize
}

// ValidateRecord checks key/value size limits.
func (t *Tree) ValidateRecord(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	if len(key) > kv.MaxKeySize {
		return fmt.Errorf("btree: key length %d exceeds %d", len(key), kv.MaxKeySize)
	}
	if len(val) > t.MaxValueSize() {
		return fmt.Errorf("btree: value length %d exceeds %d", len(val), t.MaxValueSize())
	}
	return nil
}
