// Package baseline implements the Tandem-style reorganizer of [Smi90]
// that the paper compares against (§8): every block operation (merge,
// swap) locks the entire file — here the whole-tree lock in X mode —
// works on (at most) two data blocks and logs full before/after page
// images. It is one physically logged, redo-only structure
// modification: the after-images are built on page copies and applied
// through the tree's log-then-apply path (btree.Tree.LogSMO), so an
// operation whose after-image record is not durable at a crash is
// lost, which is [Smi90]'s rollback, with no undo code anywhere.
// The contrasts the paper claims are all measurable against it:
// whole-file blocking vs page-level RX locks, two-block granularity vs
// d-page units, rollback vs forward recovery, and full-image logging vs
// careful writing.
package baseline

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Config tunes the baseline run.
type Config struct {
	// TargetFill is the fill factor merges aim for (default 0.9).
	TargetFill float64
	// SwapPass orders leaves on disk after merging.
	SwapPass bool
	// OnEvent is the crash-injection seam ("op.begin", "op.mutated",
	// "op.end").
	OnEvent func(stage string) error
}

// Reorganizer is the baseline process.
type Reorganizer struct {
	tree  *btree.Tree
	cfg   Config
	owner uint64
	m     *metrics.Counters
	seq   uint64
}

// New creates a baseline reorganizer over the tree.
func New(tree *btree.Tree, cfg Config) *Reorganizer {
	if cfg.TargetFill <= 0 || cfg.TargetFill > 1 {
		cfg.TargetFill = 0.9
	}
	return &Reorganizer{tree: tree, cfg: cfg,
		owner: tree.Txns().NextOwnerID(), m: metrics.New()}
}

// Metrics returns the baseline's counters.
func (r *Reorganizer) Metrics() *metrics.Counters { return r.m }

// Run merges sparse adjacent leaves, then optionally swaps leaves into
// key order — one whole-file-locked block operation at a time.
func (r *Reorganizer) Run() error {
	if err := r.mergePass(); err != nil {
		return err
	}
	if r.cfg.SwapPass {
		if err := r.swapPass(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Reorganizer) event(stage string) error {
	if r.cfg.OnEvent == nil {
		return nil
	}
	return r.cfg.OnEvent(stage)
}

// lockFile takes the whole-tree X lock ([Smi90] locks the entire file
// per operation). It returns the epoch locked and an unlock func.
func (r *Reorganizer) lockFile() (func(), error) {
	for {
		_, epoch := r.tree.Root()
		res := lock.TreeRes(epoch)
		if err := r.tree.Locks().Lock(r.owner, res, lock.X); err != nil {
			return nil, err
		}
		if _, e2 := r.tree.Root(); e2 == epoch {
			return func() { r.tree.Locks().Unlock(r.owner, res) }, nil
		}
		r.tree.Locks().Unlock(r.owner, res)
	}
}

func (r *Reorganizer) capacity() int {
	usable := r.tree.Pager().PageSize() - storage.HeaderSize
	return int(float64(usable) * r.cfg.TargetFill)
}

// mergePass repeatedly finds the first adjacent same-parent leaf pair
// whose records fit one page and merges it, one block operation per
// merge.
func (r *Reorganizer) mergePass() error {
	for ops := 0; ops < 1<<20; ops++ {
		merged, err := r.mergeOne()
		if err != nil {
			return err
		}
		if !merged {
			return nil
		}
	}
	return fmt.Errorf("baseline: merge pass did not terminate")
}

// mergeOne performs a single whole-file-locked merge. Returns false
// when no mergeable pair remains.
func (r *Reorganizer) mergeOne() (bool, error) {
	unlock, err := r.lockFile()
	if err != nil {
		return false, err
	}
	defer unlock()

	base, slot, err := r.findMergeablePair()
	if err != nil || base == storage.InvalidPage {
		return false, err
	}
	basePage, err := r.read(base)
	if err != nil {
		return false, err
	}
	_, left := kv.DecodeIndexCell(basePage.Cell(slot))
	rightKey, right := kv.DecodeIndexCell(basePage.Cell(slot + 1))
	rightPage, err := r.read(right)
	if err != nil {
		return false, err
	}
	succ := rightPage.Next()
	pages := []storage.PageID{left, right, base}
	if succ != storage.InvalidPage {
		pages = append(pages, succ)
	}

	op, err := r.beginOp(pages)
	if err != nil {
		return false, err
	}
	if err := r.event("op.begin"); err != nil {
		return false, err
	}

	// Move R's records into L, unlink R from the chain, drop R's base
	// entry.
	lp, rp := op.page(left), op.page(right)
	for i := 0; i < rp.NumSlots(); i++ {
		k, v := kv.DecodeLeafCell(rp.Cell(i))
		if err := kv.LeafInsert(lp, k, v); err != nil {
			return false, fmt.Errorf("baseline: merge insert: %w", err)
		}
	}
	r.m.Add(metrics.RecordsMoved, int64(rp.NumSlots()))
	rp.TruncateCells(0)
	lp.SetNext(succ)
	if succ != storage.InvalidPage {
		op.page(succ).SetPrev(left)
	}
	bp := op.page(base)
	if s, found := kv.Search(bp, rightKey); found {
		_ = bp.DeleteCell(s)
	}
	if err := r.event("op.mutated"); err != nil {
		return false, err
	}

	// R's emptied after-image stays in the record, as [Smi90] logs both
	// blocks (E6 counts it); the record frees R instead of installing it.
	if err := r.commitOp(op, right); err != nil {
		return false, err
	}
	r.m.Add(metrics.PagesFreed, 1)
	r.m.Add(metrics.BaselineOps, 1)
	if err := r.event("op.end"); err != nil {
		return false, err
	}
	return true, nil
}

// findMergeablePair scans the leaves in key order for the first
// adjacent pair under one base page whose combined payload fits the
// target capacity. The caller holds the whole-tree X lock, so plain
// reads are safe.
func (r *Reorganizer) findMergeablePair() (storage.PageID, int, error) {
	capacity := r.capacity()
	rootID, _ := r.tree.Root()
	var found storage.PageID
	foundSlot, prevUsed := -1, 0
	err := btree.Walk(r.tree.Pager(), rootID, func(n *btree.Node) (btree.Step, error) {
		p := n.Page
		if p.Type() != storage.PageLeaf {
			return btree.Descend, nil
		}
		used := p.UsedBytes() + storage.SlotSize*p.NumSlots()
		if n.Slot > 0 && prevUsed+used <= capacity {
			found, foundSlot = n.Base, n.Slot-1
			return btree.Stop, nil
		}
		prevUsed = used
		return btree.Descend, nil
	})
	if err != nil {
		return storage.InvalidPage, -1, err
	}
	return found, foundSlot, nil
}

// blockOp is one block operation in flight: its pages and their
// after-images, built on copies of the before-images.
type blockOp struct {
	pages []storage.PageID
	after [][]byte
}

// page returns the after-image of id, for the operation to edit.
func (o *blockOp) page(id storage.PageID) storage.Page {
	return o.after[slices.Index(o.pages, id)]
}

// read returns a copy of page id. The caller holds the whole-tree X
// lock, so no other writer changes it.
func (r *Reorganizer) read(id storage.PageID) (storage.Page, error) {
	pg := r.tree.Pager()
	f, err := pg.Fix(id)
	if err != nil {
		return nil, err
	}
	defer pg.Unfix(f)
	f.RLock()
	defer f.RUnlock()
	return slices.Clone(f.Data()), nil
}

// beginOp logs and forces the full before-images of pages (block-level
// logging). The record is never applied live, and redoing it only puts
// back what the pages held.
func (r *Reorganizer) beginOp(pages []storage.PageID) (*blockOp, error) {
	before := make([][]byte, len(pages))
	op := &blockOp{pages: pages, after: make([][]byte, len(pages))}
	for i, id := range pages {
		p, err := r.read(id)
		if err != nil {
			return nil, err
		}
		before[i], op.after[i] = p, slices.Clone(p)
	}
	lsn := r.tree.Log().Append(wal.PageImages{Pages: pages, Images: before})
	if err := r.tree.Log().FlushTo(lsn); err != nil {
		return nil, err
	}
	return op, nil
}

// commitOp logs the after-images, with the pages the operation frees,
// as one structure modification the tree applies, and forces the log:
// the commit point. An operation whose record is not durable is lost,
// which is [Smi90]'s rollback.
func (r *Reorganizer) commitOp(op *blockOp, dealloc ...storage.PageID) error {
	err := r.tree.LogSMO(wal.PageImages{Pages: op.pages, Images: op.after, Dealloc: dealloc})
	if err != nil {
		return err
	}
	return r.tree.Log().Flush()
}

// swapPass orders the leaves on disk using whole-file-locked swap ops.
func (r *Reorganizer) swapPass() error {
	for ops := 0; ops < 1<<20; ops++ {
		swapped, err := r.swapOne()
		if err != nil {
			return err
		}
		if !swapped {
			return nil
		}
	}
	return fmt.Errorf("baseline: swap pass did not terminate")
}

// swapOne finds the first key-ordered leaf whose page id is out of
// order and swaps it with the occupant of its target page.
func (r *Reorganizer) swapOne() (bool, error) {
	unlock, err := r.lockFile()
	if err != nil {
		return false, err
	}
	defer unlock()

	// Collect leaves in key order with their parents, from the base
	// pages' entries: no leaf is read.
	type leafInfo struct {
		page storage.PageID
		base storage.PageID
		key  []byte
	}
	var leaves []leafInfo
	rootID, _ := r.tree.Root()
	err = btree.Walk(r.tree.Pager(), rootID, func(n *btree.Node) (btree.Step, error) {
		p := n.Page
		if p.Type() != storage.PageInternal || p.Aux() != 1 {
			return btree.Descend, nil
		}
		for i := 0; i < p.NumSlots(); i++ {
			k, c := kv.DecodeIndexCell(p.Cell(i))
			leaves = append(leaves, leafInfo{page: c, base: n.ID, key: append([]byte(nil), k...)})
		}
		return btree.SkipChildren, nil
	})
	if err != nil {
		return false, err
	}
	if len(leaves) < 2 {
		return false, nil
	}
	desired := make([]storage.PageID, len(leaves))
	for i, l := range leaves {
		desired[i] = l.page
	}
	sort.Slice(desired, func(i, j int) bool { return desired[i] < desired[j] })
	k := -1
	for i := range leaves {
		if leaves[i].page != desired[i] {
			k = i
			break
		}
	}
	if k < 0 {
		return false, nil
	}
	// Find the occupant of the target page.
	var m int
	for i := range leaves {
		if leaves[i].page == desired[k] {
			m = i
			break
		}
	}
	if err := r.swapOp(leaves[k].page, leaves[k].base, leaves[k].key,
		leaves[m].page, leaves[m].base, leaves[m].key); err != nil {
		return false, err
	}
	return true, nil
}

// swapOp exchanges two leaf pages' contents under the whole-file lock,
// with before/after block images.
func (r *Reorganizer) swapOp(pa storage.PageID, baseA storage.PageID, ka []byte,
	pb storage.PageID, baseB storage.PageID, kb []byte) error {
	a, err := r.read(pa)
	if err != nil {
		return err
	}
	b, err := r.read(pb)
	if err != nil {
		return err
	}
	predA, succA := a.Prev(), a.Next()
	predB, succB := b.Prev(), b.Next()

	pages := []storage.PageID{pa, pb, baseA}
	if baseB != baseA {
		pages = append(pages, baseB)
	}
	for _, nb := range []storage.PageID{predA, succA, predB, succB} {
		if nb != storage.InvalidPage && !slices.Contains(pages, nb) {
			pages = append(pages, nb)
		}
	}
	op, err := r.beginOp(pages)
	if err != nil {
		return err
	}
	if err := r.event("op.begin"); err != nil {
		return err
	}

	swapPages(op.page(pa), op.page(pb))
	// Neighbour and parent fixes.
	fixPtr := func(id storage.PageID, next bool, to storage.PageID) {
		if id == storage.InvalidPage || id == pa || id == pb {
			return
		}
		if next {
			op.page(id).SetNext(to)
		} else {
			op.page(id).SetPrev(to)
		}
	}
	fixPtr(predA, true, pb)
	fixPtr(succA, false, pb)
	fixPtr(predB, true, pa)
	fixPtr(succB, false, pa)
	repoint := func(base storage.PageID, key []byte, to storage.PageID) error {
		p := op.page(base)
		if _, found := kv.Search(p, key); found {
			return kv.IndexReplace(p, key, key, to)
		}
		return nil
	}
	if err := repoint(baseA, ka, pb); err != nil {
		return err
	}
	if err := repoint(baseB, kb, pa); err != nil {
		return err
	}
	if err := r.event("op.mutated"); err != nil {
		return err
	}
	if err := r.commitOp(op); err != nil {
		return err
	}
	r.m.Add(metrics.BaselineOps, 1)
	r.m.Add(metrics.Pass2Swaps, 1)
	return r.event("op.end")
}

// swapPages exchanges two leaf images' contents, as core.SwapPages does
// to frames.
func swapPages(pa, pb storage.Page) {
	collect := func(p storage.Page) (cells [][]byte, next, prev storage.PageID) {
		for i := 0; i < p.NumSlots(); i++ {
			cells = append(cells, append([]byte(nil), p.Cell(i)...))
		}
		return cells, p.Next(), p.Prev()
	}
	cellsA, nextA, prevA := collect(pa)
	cellsB, nextB, prevB := collect(pb)
	idA, idB := pa.ID(), pb.ID()
	fixRef := func(ref, self, other storage.PageID) storage.PageID {
		if ref == self {
			return other
		}
		return ref
	}
	write := func(p storage.Page, cells [][]byte, next, prev storage.PageID) {
		p.TruncateCells(0)
		p.Compact()
		for i, c := range cells {
			if err := p.InsertCell(i, c); err != nil {
				panic(fmt.Sprintf("baseline: swap re-insert: %v", err))
			}
		}
		p.SetNext(next)
		p.SetPrev(prev)
	}
	write(pa, cellsB, fixRef(nextB, idA, idB), fixRef(prevB, idA, idB))
	write(pb, cellsA, fixRef(nextA, idB, idA), fixRef(prevA, idB, idA))
}
