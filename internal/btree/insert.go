package btree

import (
	"errors"
	"fmt"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/pageops"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// errRetryDescent tells modify to restart its descent (the forgo
// protocol waited out a reorganization unit, or the tree switched).
var errRetryDescent = errors.New("btree: retry descent")

// maxIndexEntry is the largest index cell (key + child + slot
// bookkeeping) a node must be able to absorb to be considered safe.
const maxIndexEntry = 2 + kv.MaxKeySize + 4 + storage.SlotSize

// nodeFull reports whether an internal node cannot take one more
// maximum-size entry (the Bayer–Schkolnick "unsafe node" test; the
// descent splits unsafe nodes preemptively so parents always have
// room).
func nodeFull(p storage.Page) bool {
	return p.FreeSpace() < maxIndexEntry
}

// insertSMO is the structure-modification path of the updater protocol
// (§4.1.3): X lock-coupling from the root, splitting unsafe nodes
// top-down, then the leaf operation. The caller retries on
// errRetryDescent.
func (t *Tree) insertSMO(tx *txn.Txn, u wal.Update) error {
	owner := tx.ID()
	h := t.NewHold(owner)
	defer h.Release()
	rootID, _ := t.Root()
	if err := h.Lock(pageRes(rootID), lock.X); err != nil {
		return err
	}
	f, err := h.Fix(rootID)
	if err != nil {
		return err
	}
	if rootID2, _ := t.Root(); rootID2 != rootID {
		// Switched between snapshot and lock grant.
		return errRetryDescent
	}

	// Root pre-split keeps the invariant that every parent we use for a
	// child split has room.
	f.RLock()
	rootFull := nodeFull(f.Data())
	f.RUnlock()
	if rootFull {
		if err := t.splitRoot(&h, f); err != nil {
			return err
		}
	}

	for {
		f.RLock()
		p := f.Data()
		level := p.Aux()
		child, _ := kv.ChildFor(p, u.Key)
		f.RUnlock()
		if child == storage.InvalidPage {
			return fmt.Errorf("btree: internal page %d empty during SMO", f.ID())
		}
		if level == 1 {
			// f is the base page; child is the leaf.
			lockErr := h.LockOpts(pageRes(child), lock.X, lock.Opt{ForgoOnRX: true})
			if errors.Is(lockErr, lock.ErrReorgConflict) {
				baseID := f.ID()
				h.Release()
				if err := t.locks.LockInstant(owner, pageRes(baseID), lock.RS); err != nil {
					return err
				}
				return errRetryDescent
			}
			if lockErr != nil {
				return lockErr
			}
			leaf, err := h.Fix(child)
			if err != nil {
				return err
			}
			if err := t.locks.Lock(owner, recordRes(u.Key), lock.X); err != nil {
				return err
			}
			u.Page = leaf.ID()
			_, aerr := t.applyLogged(tx, leaf, u)
			if errors.Is(aerr, storage.ErrPageFull) {
				if leaf, err = t.splitChild(&h, f, leaf, u.Key); err != nil {
					return err
				}
				u.Page = leaf.ID()
				_, aerr = t.applyLogged(tx, leaf, u)
			}
			h.Drop(f)
			// Downgrade the leaf to IX (held to end of transaction) per
			// the record-locking protocol.
			t.locks.Downgrade(owner, pageRes(leaf.ID()), lock.IX)
			h.Keep(pageRes(leaf.ID()))
			h.Unpin(leaf)
			return aerr
		}
		// Interior descent: X-couple, pre-splitting full children.
		if err := h.Lock(pageRes(child), lock.X); err != nil {
			return err
		}
		cf, err := h.Fix(child)
		if err != nil {
			return err
		}
		cf.RLock()
		childFull := nodeFull(cf.Data())
		cf.RUnlock()
		if childFull {
			if cf, err = t.splitChild(&h, f, cf, u.Key); err != nil {
				return err
			}
		}
		h.Drop(f)
		f = cf
	}
}

// splitChild splits child (leaf or internal) at its midpoint, posting
// the separator into parent, which the caller guarantees has room. Both
// frames arrive X-locked and pinned in h. On success the half covering
// key is returned X-locked and pinned in h; the other half is given
// back. The split is logged as one atomic wal.Split record of keys and
// page ids; the moved cells go from child to the right page in the
// apply, which makes child wait on disk for it (careful writing). On
// error the new right page is freed again and what else the split took
// stays in h.
func (t *Tree) splitChild(h *Hold, parent, child *storage.Frame, key []byte) (*storage.Frame, error) {
	owner := h.owner

	child.RLock()
	cp := child.Data()
	n := cp.NumSlots()
	level := cp.Aux()
	isLeaf := cp.Type() == storage.PageLeaf
	if n < 2 {
		child.RUnlock()
		return nil, fmt.Errorf("btree: cannot split page %d with %d cells", child.ID(), n)
	}
	mid := n / 2
	// For leaf splits the posted separator only needs to route: anything
	// in (left's last key, right's first key] works, and both boundary
	// keys are on the page, so store the shortest such prefix. Internal
	// entries carry subtree low bounds — the left subtree's keys extend
	// up to the right entry's exact key, so internal splits must post it
	// untruncated (it is itself a separator born at a leaf split).
	var sep []byte
	if isLeaf {
		sep = kv.Separator(kv.SlotKey(cp, mid-1), kv.SlotKey(cp, mid))
	} else {
		sep = append([]byte(nil), kv.SlotKey(cp, mid)...)
	}
	oldNext := cp.Next()
	child.RUnlock()

	pageType := storage.PageLeaf
	if !isLeaf {
		pageType = storage.PageInternal
	}
	right, err := t.pager.Allocate(pageType)
	if err != nil {
		return nil, err
	}
	h.Pin(right)
	rightID := right.ID()
	if err := h.Lock(pageRes(rightID), lock.X); err != nil {
		return nil, err
	}
	cleanupRight := func() {
		h.Drop(right)
		_ = t.pager.Deallocate(rightID, 0)
	}

	// Lock the old right neighbour (its Prev pointer changes).
	var nextFrame *storage.Frame
	if isLeaf && oldNext != storage.InvalidPage {
		if err := h.Lock(pageRes(oldNext), lock.X); err != nil {
			cleanupRight()
			return nil, err
		}
		if nextFrame, err = h.Fix(oldNext); err != nil {
			cleanupRight()
			return nil, err
		}
	}

	// Base-page updates consult the reorganization hook (§7.2) before
	// being carried out: during internal-page reorganization the new
	// entry may also need to reach the side file.
	// After free-at-empty, the left child's routing entry key in the
	// parent may sit above its actual low mark (keys arrived through the
	// leftmost-child rule); the posted separator would then break the
	// parent's entry ordering. Lower the entry to the child's true low
	// mark as part of the split.
	var baseOldKey, baseNewKey []byte
	child.RLock()
	leftLow := append([]byte(nil), kv.SlotKey(child.Data(), 0)...)
	child.RUnlock()
	parent.RLock()
	parentLevel := parent.Data().Aux()
	for i := 0; i < parent.Data().NumSlots(); i++ {
		k, c := kv.DecodeIndexCell(parent.Data().Cell(i))
		if c == child.ID() {
			if kv.Compare(k, leftLow) > 0 {
				baseOldKey = append([]byte(nil), k...)
				baseNewKey = leftLow
			}
			break
		}
	}
	parent.RUnlock()

	var hookReleases []func()
	hookRelease := func() {
		for _, r := range hookReleases {
			r()
		}
	}
	if parentLevel == 1 {
		if h := t.reorgHook(); h != nil {
			// The lowered entry goes first: replayed against pass 3's
			// new tree, its delete must find the child's entry before
			// the separator lands beside it.
			var ops []wal.Update
			if baseOldKey != nil {
				ops = append(ops,
					wal.Update{Page: parent.ID(), Op: wal.OpDelete,
						Key: baseOldKey, NewVal: pageops.EncodeChild(child.ID())},
					wal.Update{Page: parent.ID(), Op: wal.OpInsert,
						Key: baseNewKey, NewVal: pageops.EncodeChild(child.ID())})
			}
			ops = append(ops, wal.Update{Page: parent.ID(), Op: wal.OpInsert,
				Key: sep, NewVal: pageops.EncodeChild(rightID)})
			for _, hookOp := range ops {
				rel, err := h.OnBaseUpdate(owner, hookOp)
				if err != nil {
					hookRelease()
					cleanupRight()
					return nil, err
				}
				if rel != nil {
					hookReleases = append(hookReleases, rel)
				}
			}
		}
	}

	s := wal.Split{
		Left:       child.ID(),
		Right:      rightID,
		Level:      level,
		Sep:        sep,
		RightNext:  oldNext,
		NextPage:   oldNext,
		Base:       parent.ID(),
		BaseOldKey: baseOldKey,
		BaseNewKey: baseNewKey,
	}
	if !isLeaf {
		s.RightNext, s.NextPage = storage.InvalidPage, storage.InvalidPage
	}
	err = t.LogSMO(s)
	hookRelease()
	if err != nil {
		cleanupRight()
		return nil, fmt.Errorf("btree: apply split of %d: %w", child.ID(), err)
	}
	if isLeaf && t.ring != nil {
		t.ring.Emit(obs.EvLeafSplit, uint64(child.ID()), uint64(rightID))
	}
	if nextFrame != nil {
		h.Drop(nextFrame)
	}

	// Hand back the half that covers key.
	if kv.Compare(key, sep) >= 0 {
		h.Drop(child)
		return right, nil
	}
	h.Drop(right)
	return child, nil
}

// splitRoot grows the tree by one level while keeping the root page id
// (so the anchor only changes at the pass-3 switch). The caller holds X
// on the root; the two new pages are pinned in h while the apply fills
// them from the root's cells.
func (t *Tree) splitRoot(h *Hold, root *storage.Frame) error {
	root.RLock()
	p := root.Data()
	n := p.NumSlots()
	level := p.Aux()
	if n < 2 {
		root.RUnlock()
		return fmt.Errorf("btree: cannot split root with %d cells", n)
	}
	mid := n / 2
	// The root is internal: its entry keys are subtree low bounds, so
	// the middle key moves up untruncated (see splitChild).
	sep := append([]byte(nil), kv.SlotKey(p, mid)...)
	root.RUnlock()

	lowF, err := t.pager.Allocate(storage.PageInternal)
	if err != nil {
		return err
	}
	h.Pin(lowF)
	hiF, err := t.pager.Allocate(storage.PageInternal)
	if err != nil {
		return err
	}
	h.Pin(hiF)
	s := wal.RootSplit{Root: root.ID(), Low: lowF.ID(), High: hiF.ID(),
		Level: level, Sep: sep}
	err = t.LogSMO(s)
	h.Unpin(lowF)
	h.Unpin(hiF)
	if err != nil {
		return fmt.Errorf("btree: apply root split: %w", err)
	}
	return nil
}
