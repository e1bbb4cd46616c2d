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
		base, err := t.DescendToBase(h, from, key, lock.S, nil)
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
// (the lattice upgrades the coupling S), and recorded in h. When b is
// non-nil (and zero) the base's routing bounds, as its ancestors gave
// them on the way down, are copied into it. On error h is left as it
// was.
func (t *Tree) DescendToBase(h *Hold, root storage.PageID, key []byte, mode lock.Mode, b *Bounds) (f *storage.Frame, err error) {
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
		child, slot := kv.ChildFor(p, key)
		if child == storage.InvalidPage {
			return nil, fmt.Errorf("btree: internal page %d has no entries", f.ID())
		}
		if b != nil {
			b.narrow(p, slot)
		}
		if f, err = h.Couple(f, child, lock.S); err != nil {
			return nil, err
		}
	}
}

// Bounds are a page's routing bounds [Low, High) as its parent gives
// them (see Node); nil is unbounded.
type Bounds struct{ Low, High []byte }

// narrow makes b the bounds of internal page p's child at slot, b being
// p's: the leftmost child keeps p's Low and the rightmost p's High.
//
//vet:coldpath -- only a descent asked for bounds (the reorganizer's base cursor) copies them; a Get's passes nil
func (b *Bounds) narrow(p storage.Page, slot int) {
	if slot > 0 {
		b.Low = append([]byte(nil), kv.SlotKey(p, slot)...)
	}
	if slot+1 < p.NumSlots() {
		b.High = append([]byte(nil), kv.SlotKey(p, slot+1)...)
	}
}

// BaseEntry is one entry of a base page: the key it is stored under and
// its leaf.
type BaseEntry struct {
	Key  []byte
	Leaf storage.PageID
}

// Cursor is the paper's Get_Next(k) (§7.1): it hands the tree's base
// entries in key order, one base page at a time, by a frontier key F.
// Next descends from the root by F, so a base freed, split or merged
// between two calls costs nothing: the walk resumes by key, not by
// page.
type Cursor struct {
	t    *Tree
	root storage.PageID
	// F is the frontier. Once Next has returned, every entry from the
	// start base up to F that a base held when the cursor read it has
	// been handed.
	F []byte
	// Done is set once the rightmost base has been handed.
	Done bool
	// started is set by the first Next: before it, nothing is handed.
	started bool
}

// NewCursor returns a cursor over the tree rooted at root (0 means the
// current root, read at each Next) that starts at the base covering
// from.
func (t *Tree) NewCursor(root storage.PageID, from []byte) *Cursor {
	return &Cursor{t: t, root: root, F: from}
}

// Next descends from the root by F, with no page locked when it asks
// for the root, to the base covering F and takes mode on it. It returns
// the base, pinned and recorded in h, with its entries, and moves F to
// the base's high routing bound (Done when there is none) while the
// base is still held. It returns nil once Done. A failed Next leaves h
// and F as they were and may simply be called again.
//
// The entries in [Low, F) are left out: a base whose range now reaches
// F was read before, and a freed neighbour's range passed to it. Every
// other entry of the base is handed, one below Low too: it breaks the
// tree's ordering, and the caller's order check must see it.
func (c *Cursor) Next(h *Hold, mode lock.Mode) (*storage.Frame, []BaseEntry, error) {
	if c.Done {
		return nil, nil, nil
	}
	var b Bounds
	base, err := c.t.DescendToBase(h, c.root, c.F, mode, &b)
	if err != nil {
		return nil, nil, err
	}
	base.RLock()
	p := base.Data()
	var entries []BaseEntry
	for i := 0; i < p.NumSlots(); i++ {
		k, leaf := kv.DecodeIndexCell(p.Cell(i))
		if c.started && kv.Compare(k, c.F) < 0 && kv.Compare(k, b.Low) >= 0 {
			continue
		}
		entries = append(entries, BaseEntry{Key: append([]byte(nil), k...), Leaf: leaf})
	}
	base.RUnlock()
	c.F, c.Done, c.started = b.High, b.High == nil, true
	return base, entries, nil
}
