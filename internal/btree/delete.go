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

// freeHint remembers a leaf a transaction emptied; the free-at-empty
// structure modification runs at commit so that an abort can still
// reinsert the records into the page.
type freeHint struct {
	leaf storage.PageID
	key  []byte
}

func (t *Tree) deferFree(tx *txn.Txn, leaf storage.PageID, key []byte) {
	tx.MarkDeferred()
	t.deferredMu.Lock()
	defer t.deferredMu.Unlock()
	if t.deferredKeys == nil {
		t.deferredKeys = make(map[uint64][]freeHint)
	}
	t.deferredKeys[tx.ID()] = append(t.deferredKeys[tx.ID()],
		freeHint{leaf: leaf, key: append([]byte(nil), key...)})
}

// takeDeferred removes and returns tx's deferred frees. Only a delete
// that empties its leaf defers one, so a transaction that deferred
// nothing never takes the tree-wide deferredMu.
func (t *Tree) takeDeferred(tx *txn.Txn) []freeHint {
	if !tx.Deferred() {
		return nil
	}
	t.deferredMu.Lock()
	defer t.deferredMu.Unlock()
	hints := t.deferredKeys[tx.ID()]
	delete(t.deferredKeys, tx.ID())
	return hints
}

// Commit runs the transaction's deferred free-at-empty modifications,
// then commits it. Frees are best effort: a conflict with the
// reorganizer or another transaction simply leaves the empty page for
// the next reorganization pass.
func (t *Tree) Commit(tx *txn.Txn) error {
	for _, hint := range t.takeDeferred(tx) {
		if err := t.freeLeafSMO(tx, hint); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// Abort discards deferred frees and rolls the transaction back.
func (t *Tree) Abort(tx *txn.Txn) error {
	t.takeDeferred(tx)
	return tx.Abort()
}

// freeLeafSMO deallocates an empty leaf (free-at-empty [JS93]): it
// X-couples down the tree keeping locks only below the deepest
// "survivor" node that retains at least one other entry, unlinks the
// chain of emptied ancestors in one atomic FreeChain record, and
// rewires the leaf side pointers. Conflicts skip the free silently.
func (t *Tree) freeLeafSMO(tx *txn.Txn, hint freeHint) error {
	owner := tx.ID()
	h := t.NewHold(owner)
	defer h.Release()
	rootID, _ := t.Root()
	if err := h.Lock(pageRes(rootID), lock.X); err != nil {
		if errors.Is(err, lock.ErrDeadlock) {
			return nil
		}
		return err
	}
	type pathNode struct {
		f        *storage.Frame
		routeKey []byte // key of the entry used to descend from this node
	}
	f, err := h.Fix(rootID)
	if err != nil {
		return err
	}
	if r2, _ := t.Root(); r2 != rootID {
		return nil // switched: the new tree was built without the empty page
	}
	path := []pathNode{{f: f}}

	// Descend to the base page, keeping locks from the deepest node
	// that survives the cascade (>= 2 entries, or the root).
	for {
		cur := &path[len(path)-1]
		cur.f.RLock()
		p := cur.f.Data()
		level := p.Aux()
		child, slot := kv.ChildFor(p, hint.key)
		var routeKey []byte
		slots := p.NumSlots()
		if slot >= 0 {
			routeKey = append([]byte(nil), kv.SlotKey(p, slot)...)
		}
		cur.f.RUnlock()
		if child == storage.InvalidPage {
			return nil
		}
		cur.routeKey = routeKey
		if slots >= 2 && len(path) > 1 {
			// This node survives: ancestors can be released.
			for _, n := range path[:len(path)-1] {
				h.Drop(n.f)
			}
			path = path[len(path)-1:]
		}
		if level == 1 {
			break // path ends at the base page
		}
		if err := h.Lock(pageRes(child), lock.X); err != nil {
			if errors.Is(err, lock.ErrDeadlock) {
				return nil
			}
			return err
		}
		cf, err := h.Fix(child)
		if err != nil {
			return err
		}
		path = append(path, pathNode{f: cf})
	}

	base := path[len(path)-1]

	// Re-route to the leaf under the held base X lock.
	base.f.RLock()
	child, slot := kv.ChildFor(base.f.Data(), hint.key)
	baseSlots := base.f.Data().NumSlots()
	var leafEntryKey []byte
	if slot >= 0 {
		leafEntryKey = append([]byte(nil), kv.SlotKey(base.f.Data(), slot)...)
	}
	base.f.RUnlock()
	path[len(path)-1].routeKey = leafEntryKey
	if child != hint.leaf {
		return nil // the leaf moved or was already freed
	}
	// The survivor must keep at least one entry after the cascade; a
	// survivor with fewer than 2 entries can only be the root (keep the
	// last leaf rather than emptying the root).
	survivorSlots := baseSlots
	if len(path) > 1 {
		path[0].f.RLock()
		survivorSlots = path[0].f.Data().NumSlots()
		path[0].f.RUnlock()
	}
	if survivorSlots < 2 {
		return nil
	}

	// Lock the leaf, then its side-pointer neighbours; give up on any
	// conflict (the reorganizer will compact the leaf instead).
	skip := func(err error) error {
		if errors.Is(err, lock.ErrReorgConflict) || errors.Is(err, lock.ErrDeadlock) {
			return nil
		}
		return err
	}
	if err := h.LockOpts(pageRes(child), lock.X, lock.Opt{ForgoOnRX: true}); err != nil {
		return skip(err)
	}
	leaf, err := h.Fix(child)
	if err != nil {
		return err
	}
	leaf.RLock()
	empty := leaf.Data().NumSlots() == 0
	prev, next := leaf.Data().Prev(), leaf.Data().Next()
	leaf.RUnlock()
	if !empty {
		return nil
	}
	for _, nb := range []storage.PageID{prev, next} {
		if nb == storage.InvalidPage {
			continue
		}
		if err := h.LockOpts(pageRes(nb), lock.X, lock.Opt{ForgoOnRX: true}); err != nil {
			return skip(err)
		}
	}

	// Mirror the base-page entry removal into the side file when
	// internal-page reorganization is running (§7.2).
	baseID := base.f.ID()
	var hookRelease func()
	if h2 := t.reorgHook(); h2 != nil {
		hookOp := wal.Update{Page: baseID, Op: wal.OpDelete, Key: leafEntryKey,
			NewVal: pageops.EncodeChild(child)}
		rel, err := h2.OnBaseUpdate(owner, hookOp)
		if errors.Is(err, ErrSwitched) {
			return nil // new tree was built from post-free state
		}
		if err != nil {
			return err
		}
		hookRelease = rel
	}

	// Build the atomic free-chain record: survivor loses its entry,
	// everything below it plus the leaf is deallocated.
	survivor := path[0]
	dealloc := make([]storage.PageID, 0, len(path))
	for _, n := range path[1:] {
		dealloc = append(dealloc, n.f.ID())
	}
	dealloc = append(dealloc, child)
	fc := wal.FreeChain{
		Survivor: survivor.f.ID(),
		EntryKey: survivor.routeKey,
		Dealloc:  dealloc,
		Leaf:     child,
		PrevLeaf: prev,
		NextLeaf: next,
	}
	// Unpin before applying (deallocation requires unpinned frames);
	// the X locks keep everyone else out until the deferred release.
	h.Unpin(leaf)
	for _, n := range path {
		h.Unpin(n.f)
	}
	err = t.LogSMO(fc)
	if hookRelease != nil {
		hookRelease()
	}
	if err != nil {
		return fmt.Errorf("btree: free-at-empty of leaf %d: %w", child, err)
	}
	if t.ring != nil {
		t.ring.Emit(obs.EvLeafFree, uint64(child), 0)
	}
	return nil
}
