package btree

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/storage"
)

// maxDescendRetries bounds forgo-and-retry loops (each retry means the
// reader waited out one reorganization unit; units are short).
const maxDescendRetries = 10000

// descendToLeaf implements the reader/updater descent of §4.1.2/4.1.3:
// S lock-coupling down to the base page, then leafMode (S or X) on the
// leaf with the forgo-on-RX protocol — on an RX conflict the base lock
// is released, an unconditional instant-duration RS lock on the base
// page blocks until the reorganizer finishes, and the descent resumes
// from the base page.
//
// h must be empty. On success the leaf is returned pinned in h; its
// leafMode lock is the transaction's, not h's. The base page's lock is
// given back by the same lock-manager call that grants the leaf's, and
// its pin once the leaf is pinned (see Hold.Couple); before that call
// the key of the base's entry past the leaf's is copied into *bound
// when bound is non-nil (nil when the leaf hangs off the base's last
// entry). On error, what the descent took is in h.
//
//vet:hotpath -- the shared point-descent under Get and modify (PR 7)
func (t *Tree) descendToLeaf(h *Hold, key []byte, leafMode lock.Mode, bound *[]byte) (*storage.Frame, error) {
	from := storage.InvalidPage
	for retries := 0; retries <= maxDescendRetries; retries++ {
		base, err := t.DescendToBase(h, from, key, lock.S)
		if err != nil {
			return nil, err
		}
		p := base.Data()
		child, slot := kv.ChildFor(p, key)
		if child == storage.InvalidPage {
			return nil, fmt.Errorf("btree: internal page %d has no entries", base.ID())
		}
		// The base lock goes in the call that grants the leaf's, so
		// the routing key past the leaf is copied first.
		if bound != nil {
			*bound = nil
			if slot >= 0 && slot+1 < p.NumSlots() {
				*bound = append((*bound)[:0], kv.SlotKey(p, slot+1)...)
			}
		}
		// The leaf lock is the transaction's, held to its end: it
		// never enters h, so no failure below gives it back early.
		err = h.handOff(pageRes(base.ID()), lock.None, pageRes(child), leafMode, lock.Opt{ForgoOnRX: true})
		if errors.Is(err, lock.ErrReorgConflict) {
			// Forgo: release the base S lock, wait for the reorganizer
			// via instant RS, then re-lock and re-route from the base.
			from = base.ID()
			h.Release()
			waitStart := time.Now()
			if err := t.locks.LockInstant(h.owner, pageRes(from), lock.RS); err != nil {
				return nil, err
			}
			if t.hForgoWait != nil {
				t.hForgoWait.Record(time.Since(waitStart))
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		leaf, err := h.Fix(child)
		if err != nil {
			return nil, err
		}
		h.Unpin(base)
		return leaf, nil
	}
	return nil, fmt.Errorf("btree: descent did not converge on key %q", key)
}

// DescendToBase lock-couples down from root (0 means the current root)
// to the base page covering key and takes mode on it: the reorganizer
// uses R for passes 1–2 and S for pass 3, which walks the old tree
// while the anchor changes. The base is returned pinned, locked in mode
// (the lattice upgrades the coupling S), and recorded in h. On error h
// is left as it was.
func (t *Tree) DescendToBase(h *Hold, root storage.PageID, key []byte, mode lock.Mode) (f *storage.Frame, err error) {
	defer h.undo(h.mark(), &err)
	if root == storage.InvalidPage {
		root, _ = t.Root()
	}
	if err := h.Lock(pageRes(root), lock.S); err != nil {
		return nil, err
	}
	if f, err = t.fixRoot(root); err != nil {
		return nil, err
	}
	h.Pin(f)
	for {
		p := f.Data()
		if p.Type() != storage.PageInternal {
			return nil, fmt.Errorf("btree: descent hit %v page %d", p.Type(), f.ID())
		}
		if p.Aux() == 1 {
			if mode != lock.S {
				if err := t.locks.Lock(h.owner, pageRes(f.ID()), mode); err != nil {
					return nil, err
				}
			}
			return f, nil
		}
		child, _ := kv.ChildFor(p, key)
		if child == storage.InvalidPage {
			return nil, fmt.Errorf("btree: internal page %d has no entries", f.ID())
		}
		if f, err = h.Couple(f, child, lock.S); err != nil {
			return nil, err
		}
	}
}

// NextBase implements the paper's Get_Next(k) (§7.1) from root (0
// means the current root; pass 3 keeps walking the old tree's bases
// whatever the anchor says): it returns the base page whose low mark is
// the smallest one greater than k, locked in mode and recorded in h, or
// nil when k's base is the last. It S-lock-couples down while keeping
// the path locked so sibling navigation is consistent with concurrent
// splits. On error h is left as it was.
func (t *Tree) NextBase(h *Hold, root storage.PageID, k []byte, mode lock.Mode) (_ *storage.Frame, err error) {
	defer h.undo(h.mark(), &err)
	if root == storage.InvalidPage {
		root, _ = t.Root()
	}
	type node struct {
		f    *storage.Frame
		slot int // routing slot used at this node
	}
	var path []node
	dropPath := func() {
		for _, n := range path {
			h.Drop(n.f)
		}
	}
	fixLocked := func(id storage.PageID) (*storage.Frame, error) {
		if err := h.Lock(pageRes(id), lock.S); err != nil {
			return nil, err
		}
		return h.Fix(id)
	}

	f, err := fixLocked(root)
	if err != nil {
		return nil, err
	}
	path = append(path, node{f: f})

	// Route down to the level-2 node (the parent of base pages),
	// keeping the whole path S-locked for sibling navigation.
	for {
		cur := &path[len(path)-1]
		cur.f.RLock()
		p := cur.f.Data()
		level := p.Aux()
		child, slot := kv.ChildFor(p, k)
		cur.f.RUnlock()
		cur.slot = slot
		if level == 1 {
			// The tree has a single base page (it is the root): there
			// is no next base.
			dropPath()
			return nil, nil
		}
		if child == storage.InvalidPage {
			return nil, fmt.Errorf("btree: internal page %d empty in NextBase", cur.f.ID())
		}
		if level == 2 {
			break
		}
		cf, err := fixLocked(child)
		if err != nil {
			return nil, err
		}
		path = append(path, node{f: cf})
	}

	// Climb from the level-2 node to the lowest ancestor with a right
	// sibling of the routing slot, then descend leftmost to base level.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		n.f.RLock()
		slots := n.f.Data().NumSlots()
		var nextChild storage.PageID
		if n.slot+1 < slots {
			_, nextChild = kv.DecodeIndexCell(n.f.Data().Cell(n.slot + 1))
		}
		n.f.RUnlock()
		if nextChild == storage.InvalidPage {
			continue
		}
		// Descend leftmost from nextChild to the base level.
		cur, err := fixLocked(nextChild)
		if err != nil {
			return nil, err
		}
		for {
			cur.RLock()
			level := cur.Data().Aux()
			var first storage.PageID
			if cur.Data().NumSlots() > 0 {
				_, first = kv.DecodeIndexCell(cur.Data().Cell(0))
			}
			cur.RUnlock()
			if level == 1 {
				dropPath()
				if mode != lock.S {
					if err := t.locks.Lock(h.owner, pageRes(cur.ID()), mode); err != nil {
						return nil, err
					}
				}
				return cur, nil
			}
			if first == storage.InvalidPage {
				return nil, fmt.Errorf("btree: empty internal %d in NextBase descent", cur.ID())
			}
			if cur, err = h.Couple(cur, first, lock.S); err != nil {
				return nil, err
			}
		}
	}
	dropPath()
	return nil, nil // k's base is the rightmost
}
