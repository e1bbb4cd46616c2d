package check

import (
	"repro"
	"repro/internal/btree"
	"repro/internal/storage"
)

// TreeOptions tunes which invariants the structure oracle asserts.
// The zero value checks everything unconditional: the WAL rule, the
// structure rules DB.Check applies (btree.Tree.Audit: key order,
// separators, levels, typing, self ids, page format, slot directory,
// cycles, the sibling chain), the seek model, and free-map agreement.
type TreeOptions struct {
	// NoSync skips the log flush + FlushAll that normally makes the
	// disk authoritative before structural checks. Only for tests that
	// manage durability themselves.
	NoSync bool
	// MergeableFill, when positive, enables the post-Pass-1 audit: no
	// two adjacent leaves under the same base page may fit together in
	// one page of capacity (pageSize-header)*MergeableFill. This is the
	// paper's compaction goal — per-leaf minimum fill is NOT an
	// invariant (the last leaf of a group is a remainder), but a
	// mergeable adjacent pair means Pass 1 left work behind.
	MergeableFill float64
	// ExpectContiguous enables the post-Pass-2 audit: leaf page ids
	// must be strictly increasing in key order (zero out-of-order
	// pairs), so a range scan never seeks backwards.
	ExpectContiguous bool
}

// Tree runs the structure oracle with default options on a quiescent
// database (no concurrent transactions, no running reorganization).
func Tree(db *repro.DB) *Report { return TreeWith(db, TreeOptions{}) }

// leafInfo is what the walk records per leaf, in key order.
type leafInfo struct {
	id      storage.PageID
	base    storage.PageID // parent level-1 page
	payload int            // used cell bytes + slot directory
}

// TreeWith runs the structure oracle. It collects every violation it
// can find rather than failing fast; use Report.Err for a test error.
func TreeWith(db *repro.DB, opts TreeOptions) *Report {
	rep := &Report{}
	t := db.Tree()
	pager := t.Pager()
	disk := pager.Disk()
	wlog := t.Log()
	pageSize := pager.PageSize()

	// --- WAL rule, on the raw disk images BEFORE any flushing: no
	// stable page may carry an LSN past the durable log horizon.
	durable := wlog.DurableLSN()
	buf := make([]byte, pageSize)
	numPages := disk.NumPages()
	for id := storage.PageID(1); int(id) < numPages; id++ {
		if err := disk.Read(id, buf); err != nil {
			rep.Add("io", id, "raw read failed: %v", err)
			continue
		}
		p := storage.Page(buf)
		if p.Type() == storage.PageFree {
			continue
		}
		if p.LSN() > durable {
			rep.Add("wal-rule", id, "stable image LSN %d > durable log LSN %d",
				p.LSN(), durable)
		}
	}

	// --- Make the disk authoritative for everything that follows.
	if !opts.NoSync {
		if err := wlog.Flush(); err != nil {
			rep.Add("io", 0, "log flush: %v", err)
			return rep
		}
		if err := pager.FlushAll(); err != nil {
			rep.Add("io", 0, "flush all: %v", err)
			return rep
		}
	}

	// --- Anchor.
	_, sideHead := t.ReorgState()
	if err := disk.Read(btree.AnchorPage, buf); err != nil {
		rep.Add("io", btree.AnchorPage, "raw read failed: %v", err)
	} else if typ := storage.Page(buf).Type(); typ != storage.PageAnchor {
		rep.Add("anchor", btree.AnchorPage, "type %v, want anchor", typ)
	}

	// --- The structure rules DB.Check applies (btree.Tree.Audit), in
	// one walk that also gathers the leaves in key order with their base
	// page for the extras below.
	var leaves []leafInfo
	visited, err := t.Audit(func(rule string, id storage.PageID, msg string) {
		rep.Add(rule, id, "%s", msg)
	}, func(n *btree.Node) {
		leaves = append(leaves, leafInfo{
			id: n.ID, base: n.Base,
			payload: n.Page.UsedBytes() + storage.SlotSize*n.Page.NumSlots(),
		})
	})
	if err != nil {
		rep.Add("io", 0, "tree walk: %v", err)
		return rep
	}
	if len(visited) == 0 {
		return rep // the root is not an internal page: nothing was walked
	}

	// --- Post-Pass-1: no mergeable adjacent pair within a base page's
	// group. (Cross-base pairs are exempt: Pass 1 compacts one base
	// page's children at a time, §6.)
	if opts.MergeableFill > 0 {
		capacity := int(float64(pageSize-storage.HeaderSize) * opts.MergeableFill)
		for i := 0; i+1 < len(leaves); i++ {
			a, b := leaves[i], leaves[i+1]
			if a.base != b.base {
				continue
			}
			if a.payload+b.payload <= capacity {
				rep.Add("mergeable", a.id,
					"leaves %d+%d (payload %d+%d) fit in one page of capacity %d",
					a.id, b.id, a.payload, b.payload, capacity)
			}
		}
	}

	// --- Post-Pass-2: key order must equal disk order.
	if opts.ExpectContiguous {
		for i := 1; i < len(leaves); i++ {
			if leaves[i].id <= leaves[i-1].id {
				rep.Add("contiguity", leaves[i].id,
					"leaf id %d not above key-predecessor leaf %d",
					leaves[i].id, leaves[i-1].id)
			}
		}
	}

	// --- Seek model: replaying the leaf chain against the raw disk
	// must cost exactly the seeks the page ids predict (IOStats charges
	// a seek for every non-successor read). The first read's seek
	// depends on prior head position, hence the 0/1 tolerance.
	if len(leaves) > 1 {
		modeled := int64(0)
		for i := 1; i < len(leaves); i++ {
			if leaves[i].id != leaves[i-1].id+1 {
				modeled++
			}
		}
		before := disk.Stats().Seeks.Load()
		ok := true
		for _, lf := range leaves {
			if err := disk.Read(lf.id, buf); err != nil {
				rep.Add("io", lf.id, "raw read failed: %v", err)
				ok = false
				break
			}
		}
		if ok {
			delta := disk.Stats().Seeks.Load() - before
			if delta != modeled && delta != modeled+1 {
				rep.Add("seek-model", 0,
					"scan of %d leaves cost %d seeks, model predicts %d (+1 tolerance)",
					len(leaves), delta, modeled)
			}
		}
	}

	// --- Free map vs. stable storage vs. reachability. The side-file
	// chain (if a reorganization was interrupted before its switch) is
	// reachable state too.
	reachable := make(map[storage.PageID]bool, len(visited)+2)
	for id := range visited {
		reachable[id] = true
	}
	reachable[btree.AnchorPage] = true
	for id := sideHead; id != storage.InvalidPage && id != 0; {
		if reachable[id] {
			rep.Add("cycle", id, "side-file chain loops")
			break
		}
		reachable[id] = true
		if err := disk.Read(id, buf); err != nil {
			rep.Add("io", id, "raw read failed: %v", err)
			break
		}
		id = storage.Page(buf).Next()
	}

	fm := pager.FreeMap()
	types := disk.ScanTypes()
	for i := 1; i < len(types); i++ {
		id := storage.PageID(i)
		diskUsed := types[i] != storage.PageFree
		mapUsed := fm.IsAllocated(id)
		switch {
		case diskUsed && !mapUsed:
			rep.Add("freemap-drift", id,
				"stable image is %v but the free map says free", types[i])
		case !diskUsed && mapUsed:
			rep.Add("freemap-drift", id,
				"free map says allocated but the stable image is free")
		}
		if diskUsed && !reachable[id] {
			rep.Add("freemap-leak", id,
				"allocated %v page unreachable from anchor, tree or side file", types[i])
		}
		if !diskUsed && reachable[id] {
			rep.Add("freemap-leak", id, "reachable page has a free stable image")
		}
	}

	return rep
}
