package btree

import (
	"fmt"

	"repro/internal/kv"
	"repro/internal/storage"
)

// Stats summarises the physical state of the tree; the benchmarks use
// it to quantify what reorganization achieves (fill factor, height,
// on-disk ordering of leaves).
type Stats struct {
	Height        int
	InternalPages int
	LeafPages     int
	Records       int
	AvgLeafFill   float64 // mean fill factor over leaves
	MinLeafFill   float64
	LeafIDs       []storage.PageID // leaf pages in key order
	// OutOfOrderPairs counts adjacent key-ordered leaves whose page ids
	// decrease — the disorder a range scan pays seek cost for and pass 2
	// eliminates.
	OutOfOrderPairs int
	// ContiguousPairs counts adjacent key-ordered leaves at exactly
	// consecutive page ids.
	ContiguousPairs int
}

// Check verifies the structure rules (Audit) and returns the first
// violation. It takes no locks: call it on a quiescent tree (tests and
// tools).
func (t *Tree) Check() error {
	var first error
	_, err := t.Audit(func(rule string, id storage.PageID, msg string) {
		if first == nil {
			first = fmt.Errorf("btree: %s: page %d: %s", rule, id, msg)
		}
	}, nil)
	if err != nil {
		return err
	}
	return first
}

// Audit is the one statement of the structure rules of the paper's
// tree (§6–§7): it walks the quiescent tree once and reports every
// violation through report, under the rule's name — self-id,
// key-order, page-version, slot-dir, level, node-type, empty-internal,
// bounds (low-mark routing bounds every key of a page), cycle (a page
// reached twice) and chain (the two-way leaf chain runs through exactly
// the leaves, in key order). leaf, if not nil, sees each leaf in key order. Audit returns
// the pages the walk reached, and the first fix error.
func (t *Tree) Audit(report func(rule string, id storage.PageID, msg string), leaf func(n *Node)) (map[storage.PageID]bool, error) {
	add := func(rule string, id storage.PageID, format string, args ...any) {
		report(rule, id, fmt.Sprintf(format, args...))
	}
	reached := make(map[storage.PageID]bool)
	var leaves []storage.PageID
	root, _ := t.Root()
	err := Walk(t.pager, root, func(n *Node) (Step, error) {
		p := n.Page
		if n.Slot < 0 && p.Type() != storage.PageInternal {
			add("node-type", n.ID, "root is %v, want internal", p.Type())
			return Stop, nil
		}
		if reached[n.ID] {
			add("cycle", n.ID, "page reached twice in tree walk")
			return SkipChildren, nil
		}
		reached[n.ID] = true
		if p.ID() != n.ID {
			add("self-id", n.ID, "header id is %d", p.ID())
		}
		if err := kv.Verify(p); err != nil {
			add("key-order", n.ID, "%v", err)
		}
		if p.Version() != storage.PageFormatVersion {
			add("page-version", n.ID, "format v%d, want v%d", p.Version(), storage.PageFormatVersion)
		}
		if err := p.CheckSlots(); err != nil {
			add("slot-dir", n.ID, "%v", err)
		}
		slots := p.NumSlots()
		switch p.Type() {
		case storage.PageLeaf:
			if n.Level != 0 {
				add("level", n.ID, "leaf at expected level %d", n.Level)
			}
			if slots > 0 {
				if first := kv.SlotKey(p, 0); n.Low != nil && kv.Compare(first, n.Low) < 0 {
					add("bounds", n.ID, "first key %q below separator %q", first, n.Low)
				}
				if last := kv.SlotKey(p, slots-1); n.High != nil && kv.Compare(last, n.High) >= 0 {
					add("bounds", n.ID, "last key %q not below separator %q", last, n.High)
				}
			}
			leaves = append(leaves, n.ID)
			if leaf != nil {
				leaf(n)
			}
		case storage.PageInternal:
			if int(p.Aux()) != n.Level {
				add("level", n.ID, "internal level %d, expected %d", p.Aux(), n.Level)
			}
			if slots == 0 {
				add("empty-internal", n.ID, "internal page has no entries")
			}
			for i := 0; i < slots; i++ {
				key := kv.SlotKey(p, i)
				if n.Low != nil && kv.Compare(key, n.Low) < 0 {
					add("bounds", n.ID, "entry %q below separator %q", key, n.Low)
				}
				if n.High != nil && kv.Compare(key, n.High) >= 0 {
					add("bounds", n.ID, "entry %q not below separator %q", key, n.High)
				}
			}
		default:
			add("node-type", n.ID, "type %v inside the tree", p.Type())
		}
		return Descend, nil
	})
	if err != nil {
		return reached, err
	}
	// The chain rule reads each leaf again, in key order, once the walk
	// has listed them: the page fixes the rules have always made, so a
	// bounded pool misses where it did, and so do the fault-point hits
	// that crash schedules are pinned to.
	for i, id := range leaves {
		f, err := t.pager.Fix(id)
		if err != nil {
			return reached, err
		}
		f.RLock()
		prev, next := f.Data().Prev(), f.Data().Next()
		f.RUnlock()
		t.pager.Unfix(f)
		var wantPrev, wantNext storage.PageID
		if i > 0 {
			wantPrev = leaves[i-1]
		}
		if i+1 < len(leaves) {
			wantNext = leaves[i+1]
		}
		if prev != wantPrev {
			add("chain", id, "prev = %d, want %d", prev, wantPrev)
		}
		if next != wantNext {
			add("chain", id, "next = %d, want %d", next, wantNext)
		}
	}
	return reached, nil
}

// GatherStats walks the quiescent tree and returns physical statistics.
func (t *Tree) GatherStats() (Stats, error) {
	var s Stats
	minFill := 1.0
	root, _ := t.Root()
	err := Walk(t.pager, root, func(n *Node) (Step, error) {
		p := n.Page
		if n.Slot < 0 {
			s.Height = n.Level + 1
		}
		if p.Type() != storage.PageLeaf {
			s.InternalPages++
			return Descend, nil
		}
		s.LeafPages++
		s.Records += p.NumSlots()
		fill := p.FillFactor()
		s.AvgLeafFill += fill
		minFill = min(minFill, fill)
		s.LeafIDs = append(s.LeafIDs, n.ID)
		return Descend, nil
	})
	if err != nil {
		return s, err
	}
	if s.LeafPages > 0 {
		s.AvgLeafFill /= float64(s.LeafPages)
		s.MinLeafFill = minFill
	}
	for i := 1; i < len(s.LeafIDs); i++ {
		if s.LeafIDs[i] < s.LeafIDs[i-1] {
			s.OutOfOrderPairs++
		}
		if s.LeafIDs[i] == s.LeafIDs[i-1]+1 {
			s.ContiguousPairs++
		}
	}
	return s, nil
}

// RangeOccupancy is one key-range cell of the occupancy gauges: how
// full and how contiguous the leaves covering [LoKey, HiKey] are. The
// autonomous reorganization policy reads these to find where sparsity
// has accumulated without walking the whole tree into one number.
type RangeOccupancy struct {
	LoKey   []byte
	HiKey   []byte
	Leaves  int
	Records int
	AvgFill float64
	MinFill float64
	// Pairs counts adjacent leaf pairs inside the range;
	// ContiguousPairs those at consecutive page ids, OutOfOrderPairs
	// those whose page ids decrease.
	Pairs           int
	ContiguousPairs int
	OutOfOrderPairs int
}

// leafSample is one leaf's occupancy reading during the chain walk.
type leafSample struct {
	id       storage.PageID
	firstKey []byte
	records  int
	fill     float64
}

// GatherRangeOccupancy walks the leaf chain and aggregates occupancy
// into at most n contiguous key ranges of roughly equal leaf count.
// The walk follows side pointers under per-frame read latches, so it
// can run on a live system; concurrent splits may skew a cell by a
// leaf or two (best-effort gauges, not an audit).
func (t *Tree) GatherRangeOccupancy(n int) ([]RangeOccupancy, error) {
	if n <= 0 {
		n = 1
	}
	rootID, _ := t.Root()
	cur, err := t.pager.Fix(rootID)
	if err != nil {
		return nil, err
	}
	// Descend leftmost child pointers to the first leaf.
	for {
		cur.RLock()
		p := cur.Data()
		if p.Type() == storage.PageLeaf {
			cur.RUnlock()
			break
		}
		if p.NumSlots() == 0 {
			cur.RUnlock()
			t.pager.Unfix(cur)
			return nil, fmt.Errorf("btree: empty internal %d in occupancy walk", cur.ID())
		}
		_, child := kv.DecodeIndexCell(p.Cell(0))
		cur.RUnlock()
		cf, err := t.pager.Fix(child)
		if err != nil {
			t.pager.Unfix(cur)
			return nil, err
		}
		t.pager.Unfix(cur)
		cur = cf
	}
	var leaves []leafSample
	for {
		cur.RLock()
		p := cur.Data()
		ls := leafSample{id: cur.ID(), records: p.NumSlots(), fill: p.FillFactor()}
		if ls.records > 0 {
			ls.firstKey = append([]byte(nil), kv.SlotKey(p, 0)...)
		}
		next := p.Next()
		cur.RUnlock()
		t.pager.Unfix(cur)
		leaves = append(leaves, ls)
		if next == storage.InvalidPage {
			break
		}
		if cur, err = t.pager.Fix(next); err != nil {
			return nil, err
		}
	}
	if n > len(leaves) {
		n = len(leaves)
	}
	out := make([]RangeOccupancy, 0, n)
	for c := 0; c < n; c++ {
		lo, hi := c*len(leaves)/n, (c+1)*len(leaves)/n
		cell := RangeOccupancy{MinFill: 1}
		for i := lo; i < hi; i++ {
			s := leaves[i]
			cell.Leaves++
			cell.Records += s.records
			cell.AvgFill += s.fill
			if s.fill < cell.MinFill {
				cell.MinFill = s.fill
			}
			if cell.LoKey == nil {
				cell.LoKey = s.firstKey
			}
			if s.firstKey != nil {
				cell.HiKey = s.firstKey
			}
			if i > lo {
				cell.Pairs++
				if s.id == leaves[i-1].id+1 {
					cell.ContiguousPairs++
				}
				if s.id < leaves[i-1].id {
					cell.OutOfOrderPairs++
				}
			}
		}
		if cell.Leaves > 0 {
			cell.AvgFill /= float64(cell.Leaves)
		} else {
			cell.MinFill = 0
		}
		out = append(out, cell)
	}
	return out, nil
}

// CollectAll returns every record in the tree in key order (test
// support; quiescent tree only).
func (t *Tree) CollectAll() (keys, vals [][]byte, err error) {
	root, _ := t.Root()
	err = Walk(t.pager, root, func(n *Node) (Step, error) {
		if n.Page.Type() != storage.PageLeaf {
			return Descend, nil
		}
		for i := 0; i < n.Page.NumSlots(); i++ {
			k, v := kv.DecodeLeafCell(n.Page.Cell(i))
			keys = append(keys, append([]byte(nil), k...))
			vals = append(vals, append([]byte(nil), v...))
		}
		return Descend, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return keys, vals, nil
}
