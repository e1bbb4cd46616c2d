package btree

import (
	"slices"

	"repro/internal/kv"
	"repro/internal/storage"
)

// Node is one page of a Walk as its visitor sees it.
type Node struct {
	ID storage.PageID
	// Page is the page, read-latched for the visit; it is not valid
	// after the visitor returns.
	Page storage.Page
	// Level is the level the page must have: the root's own, one less
	// for each step down.
	Level int
	// Low and High are the routing bounds [Low, High) the parent gives
	// the page; nil is unbounded. The leftmost child inherits its
	// parent's Low (low-mark routing), every other child's Low is its
	// entry key.
	Low, High []byte
	// Slot is the page's entry in its parent, -1 for the root.
	Slot int
	// Base is the level-1 page above a leaf, 0 on the levels above.
	Base storage.PageID
}

// Step tells Walk where to go after a visit.
type Step int

const (
	// Descend visits the page's children next (an internal page's).
	Descend Step = iota
	// SkipChildren goes on with the page's next sibling.
	SkipChildren
	// Stop ends the walk.
	Stop
)

// Walk is the one whole-tree walk: it visits the quiescent tree rooted
// at root in pre-order, children in slot order, and hands visit each
// page with its level, routing bounds and base page. A page is fixed
// and read-latched only while it is visited; the walk goes down from a
// copy of it. Walk takes no locks: the caller keeps the tree still (a
// tool, a test, or pass 3's old tree after the switch). It returns the
// first fix or visitor error.
func Walk(pg *storage.Pager, root storage.PageID, visit func(n *Node) (Step, error)) error {
	_, err := walk(pg, &Node{ID: root, Slot: -1}, visit)
	return err
}

// walk visits n and its subtree and reports whether the walk is over.
func walk(pg *storage.Pager, n *Node, visit func(n *Node) (Step, error)) (bool, error) {
	f, err := pg.Fix(n.ID)
	if err != nil {
		return true, err
	}
	f.RLock()
	n.Page = f.Data()
	if n.Slot < 0 {
		n.Level = int(n.Page.Aux())
	}
	step, err := visit(n)
	var parent storage.Page // a copy: the children's bounds point into it
	if err == nil && step == Descend && n.Page.Type() == storage.PageInternal {
		parent = slices.Clone(n.Page)
	}
	n.Page = nil
	f.RUnlock()
	pg.Unfix(f)
	if err != nil || step == Stop {
		return true, err
	}
	base := n.Base
	if n.Level == 1 {
		base = n.ID
	}
	for i := 0; parent != nil && i < parent.NumSlots(); i++ {
		key, id := kv.DecodeIndexCell(parent.Cell(i))
		child := Node{ID: id, Level: n.Level - 1, Low: n.Low, High: n.High, Slot: i, Base: base}
		if i > 0 {
			child.Low = key
		}
		if i+1 < parent.NumSlots() {
			child.High = kv.SlotKey(parent, i+1)
		}
		if done, err := walk(pg, &child, visit); done {
			return true, err
		}
	}
	return false, nil
}
