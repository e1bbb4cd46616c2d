package btree

import (
	"repro/internal/lock"
	"repro/internal/storage"
)

// Hold is one walk's hold on the tree: the locks it took and the frames
// it pinned, recorded as they are acquired so that the walk gives all of
// them back in one place, Release, on every way out. Descents,
// structure modifications, scans, reorganization units and pass 3 all
// take their pages through a Hold. A lock the owner keeps past the walk
// (a transaction's leaf lock, held to its end) leaves through Keep.
// The first holdInline locks and pins live inline, so a point descent
// allocates nothing.
type Hold struct {
	t     *Tree
	owner uint64
	locks few[lock.Resource]
	pins  few[*storage.Frame]
}

// NewHold returns an empty hold for owner's walks over t.
func (t *Tree) NewHold(owner uint64) Hold {
	return Hold{t: t, owner: owner}
}

// Lock takes mode on res for the hold. A resource the hold already has
// is not asked for again, whatever the mode: a unit may meet one page
// twice (swapped leaves can be each other's neighbours).
func (h *Hold) Lock(res lock.Resource, mode lock.Mode) error {
	return h.LockOpts(res, mode, lock.Opt{})
}

// LockOpts is Lock with the lock manager's options.
func (h *Hold) LockOpts(res lock.Resource, mode lock.Mode, opt lock.Opt) error {
	if h.locks.index(res) >= 0 {
		return nil
	}
	if err := h.t.locks.LockOpts(h.owner, res, mode, opt); err != nil {
		return err
	}
	h.locks.add(res)
	return nil
}

// Fix pins page id for the hold.
func (h *Hold) Fix(id storage.PageID) (*storage.Frame, error) {
	f, err := h.t.pager.Fix(id)
	if err == nil {
		h.pins.add(f)
	}
	return f, err
}

// Pin records as the hold's a pin taken elsewhere (the cached root, a
// fresh allocation).
func (h *Hold) Pin(f *storage.Frame) { h.pins.add(f) }

// Couple is one step of lock coupling: it locks child in mode, pins it
// and gives back parent, in that order. Locking the child and releasing
// the parent's lock is one lock-manager call, so the parent stays
// pinned, unlocked, until the child is pinned. No structure
// modification can free it meanwhile: a page is freed only with its
// subtree, and the child's lock keeps that out (the pager refuses to
// free a pinned page). If the lock fails parent stays held; if the pin
// fails, the parent's lock is already given back and its pin is still
// in the hold.
func (h *Hold) Couple(parent *storage.Frame, child storage.PageID, mode lock.Mode) (*storage.Frame, error) {
	res := pageRes(child)
	if h.locks.index(res) >= 0 {
		// No second request for a page the hold has.
		f, err := h.Fix(child)
		if err == nil {
			h.Drop(parent)
		}
		return f, err
	}
	if err := h.handOff(pageRes(parent.ID()), lock.None, res, mode, lock.Opt{}); err != nil {
		return nil, err
	}
	h.locks.add(res)
	f, err := h.Fix(child)
	if err == nil {
		h.Unpin(parent)
	}
	return f, err
}

// handOff takes mode on res under opt and, in the same lock-manager
// call, gives back parent once res is granted: it releases parent's
// lock and takes it out of the hold when parentTo is None (a parent the
// hold does not have is left alone), and downgrades parent to parentTo
// otherwise. res does not enter the hold. On failure nothing changes.
func (h *Hold) handOff(parent lock.Resource, parentTo lock.Mode, res lock.Resource, mode lock.Mode, opt lock.Opt) error {
	i := -1
	if parentTo == lock.None {
		if i = h.locks.index(parent); i < 0 {
			parent = lock.Resource{}
		}
	}
	if err := h.t.locks.Couple(h.owner, res, mode, opt, parent, parentTo); err != nil {
		return err
	}
	if i >= 0 {
		h.locks.remove(i)
	}
	return nil
}

// Drop gives back one page early: its lock and one pin.
func (h *Hold) Drop(f *storage.Frame) {
	h.Unpin(f)
	if i := h.locks.index(pageRes(f.ID())); i >= 0 {
		h.t.locks.Unlock(h.owner, h.locks.remove(i))
	}
}

// Unpin gives back one pin of f early (a page must be unpinned to be
// freed).
func (h *Hold) Unpin(f *storage.Frame) {
	if i := h.pins.index(f); i >= 0 {
		h.t.pager.Unfix(h.pins.remove(i))
	}
}

// Keep takes res out of the hold unreleased: the owner keeps the lock.
func (h *Hold) Keep(res lock.Resource) {
	if i := h.locks.index(res); i >= 0 {
		h.locks.remove(i)
	}
}

// Release gives back everything the hold has, pins first, each in the
// order it was taken. The hold is empty afterwards.
func (h *Hold) Release() { h.releaseTo(holdMark{}) }

// holdMark is a point in a hold's history: what it held then.
type holdMark struct{ locks, pins int }

func (h *Hold) mark() holdMark { return holdMark{h.locks.n, h.pins.n} }

// undo gives back what the hold took since m if *err is set, so that
// a failed walk leaves a caller's hold as it found it. The walks that
// use it drop only pages they took themselves.
func (h *Hold) undo(m holdMark, err *error) {
	if *err != nil {
		h.releaseTo(m)
	}
}

func (h *Hold) releaseTo(m holdMark) {
	for i := m.pins; i < h.pins.n; i++ {
		h.t.pager.Unfix(*h.pins.at(i))
	}
	for i := m.locks; i < h.locks.n; i++ {
		h.t.locks.Unlock(h.owner, *h.locks.at(i))
	}
	h.pins.truncate(m.pins)
	h.locks.truncate(m.locks)
}

// holdInline is how many locks and pins a hold keeps without
// allocating: a point descent holds at most two pages at once.
const holdInline = 4

// few is a list whose first holdInline elements live inline.
type few[T comparable] struct {
	n    int
	head [holdInline]T
	more []T
}

func (l *few[T]) at(i int) *T {
	if i < holdInline {
		return &l.head[i]
	}
	return &l.more[i-holdInline]
}

func (l *few[T]) add(v T) {
	if l.n < holdInline {
		l.head[l.n] = v
		l.n++
		return
	}
	l.more = append(l.more, v)
	l.n++
}

func (l *few[T]) index(v T) int {
	for i := range min(l.n, holdInline) {
		if l.head[i] == v {
			return i
		}
	}
	for i, x := range l.more {
		if x == v {
			return holdInline + i
		}
	}
	return -1
}

// remove deletes element i, keeping the others in order, and returns it.
func (l *few[T]) remove(i int) T {
	v := *l.at(i)
	for ; i+1 < l.n; i++ {
		*l.at(i) = *l.at(i + 1)
	}
	l.truncate(l.n - 1)
	return v
}

// truncate keeps the first n elements.
func (l *few[T]) truncate(n int) {
	var zero T
	for i := n; i < l.n; i++ {
		*l.at(i) = zero
	}
	l.n = n
	l.more = l.more[:max(n-holdInline, 0)]
}
