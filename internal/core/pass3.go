package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/pageops"
	"repro/internal/sidefile"
	"repro/internal/storage"
	"repro/internal/wal"
)

// pass3State is the shared state between the reorganizer and the
// base-update hook during internal-page reorganization (§7).
type pass3State struct {
	mu       sync.Mutex
	active   bool
	switched bool
	allRead  bool   // every base page has been read: all updates go to the side file
	ck       []byte // low mark of the base page currently being read
	sf       *sidefile.SideFile
}

func (s *pass3State) start(sf *sidefile.SideFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.switched, s.allRead = true, false, false
	s.ck = nil
	s.sf = sf
}

func (s *pass3State) setCK(ck []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ck = append([]byte(nil), ck...)
}

func (s *pass3State) setAllRead() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.allRead = true
}

func (s *pass3State) setSwitched() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.switched = true
}

func (s *pass3State) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.switched, s.allRead = false, false, false
	s.sf = nil
}

// OnBaseUpdate implements btree.ReorgHook (§7.2): an updater holding X
// on a base page calls it before changing the base. If the reorganizer
// has already read past the key (or has read everything), the change is
// appended to the side file under an IX table lock, held (via the
// returned release) until the base change is applied. A blocked IX
// means the switch is in progress: the updater waits it out with an
// instant-duration IX and restarts against the new tree.
func (r *Reorganizer) OnBaseUpdate(owner uint64, op wal.Update) (func(), error) {
	r.pass3.mu.Lock()
	active, allRead, switched := r.pass3.active, r.pass3.allRead, r.pass3.switched
	ck := append([]byte(nil), r.pass3.ck...)
	sf := r.pass3.sf
	r.pass3.mu.Unlock()
	if !active || sf == nil {
		return nil, nil
	}
	if switched {
		return nil, btree.ErrSwitched
	}
	needSide := allRead || kv.Compare(op.Key, ck) < 0
	if !needSide {
		return nil, nil // the reorganizer will read this base page later
	}
	locks := r.tree.Locks()
	err := locks.LockOpts(owner, lock.SideFileRes(), lock.IX, lock.Opt{NoWait: true})
	if errors.Is(err, lock.ErrWouldBlock) {
		// Switching is in progress: the reorganizer holds X on the side
		// file and will need X on the old tree, which this updater's
		// transaction may hold intents on — waiting here would deadlock.
		// The paper's escape hatch is to force old-tree transactions to
		// abort (§7.4); ErrSwitched propagates up so the transaction
		// aborts and retries against the (about to be) new tree.
		return nil, btree.ErrSwitched
	}
	if err != nil {
		return nil, err
	}
	var child storage.PageID
	if op.Op == wal.OpInsert {
		child = pageops.DecodeChild(op.NewVal)
	}
	if err := sf.Append(owner, op.Op, op.Key, child); err != nil {
		locks.Unlock(owner, lock.SideFileRes())
		return nil, err
	}
	return func() { locks.Unlock(owner, lock.SideFileRes()) }, nil
}

// RebuildInternal is pass 3 (§7): build new internal levels bottom-up
// from the sorted base pages (one S lock at a time), catch up
// concurrent base changes through the side file, then switch.
//
// Its tree-name, side-file and base-page locks are one hold, given back
// in one deferred call, but not after an event error (a simulated
// crash) or any error after the SwitchRoot append: the next force makes
// that record durable and restart completes the switch, so side-file X
// keeps base pages frozen until then. Before the append a failed pass
// undoes itself (abandon); if that fails, the reorganization bit stays
// set for restart's ReclaimPass3.
func (r *Reorganizer) RebuildInternal() (err error) {
	h := r.tree.NewHold(r.owner)
	var sf *sidefile.SideFile
	var b *builder
	committed := false
	defer func() {
		if r.crashed || (committed && err != nil) {
			return
		}
		if err != nil && sf != nil {
			if cerr := r.abandon(&h, sf, b); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
		h.Release()
	}()
	pg := r.tree.Pager()
	oldRoot, oldEpoch := r.tree.Root()

	if err := h.Lock(lock.TreeRes(oldEpoch), lock.IX); err != nil {
		return fmt.Errorf("pass3 tree IX: %w", err)
	}
	b = newBuilder(pg, r.tree.Log(), r.cfg.TargetFill)
	if sf, err = sidefile.Create(pg, r.tree.Log(), r.tree.Locks()); err != nil {
		return err
	}
	r.pass3.start(sf)
	if err := r.tree.SetReorgBit(true, sf.Head()); err != nil {
		return err
	}
	r.tree.SetReorgHook(r)

	// Read the old tree's base pages left to right, one S lock at a
	// time, feeding every entry into the bulk builder. CK tracks the
	// base being read; it is advanced before the S lock is released.
	base, err := retryWalk(r.tree.DescendToBase, &h, oldRoot, nil, lock.S)
	if err != nil {
		return fmt.Errorf("pass3 first base: %w", err)
	}
	basesRead := 0
	var lastKey []byte
	for base != nil {
		entries := readBaseEntries(base)
		if len(entries) > 0 {
			r.pass3.setCK(entries[0].key)
		}
		var next *storage.Frame
		var lowMark []byte
		if len(entries) > 0 {
			lowMark = entries[0].key
		}
		// Couple to the next base so CK can be advanced before this S
		// lock is released (§7.1). If the couple is victimised, the
		// current base must be RELEASED before retrying — holding it
		// would pin the deadlock cycle in place — and then re-read,
		// since updates may hit it while unlocked (CK still names it,
		// so they are not in the side file).
		for tries := 0; ; tries++ {
			next, err = r.tree.NextBase(&h, oldRoot, lowMark, lock.S)
			if err == nil {
				break
			}
			if !isTransient(err) || tries > 1000 {
				return fmt.Errorf("pass3 next base: %w", err)
			}
			h.Drop(base)
			retryBackoff(tries)
			base, err = retryWalk(r.tree.DescendToBase, &h, oldRoot, lowMark, lock.S)
			if err != nil {
				return fmt.Errorf("pass3 re-acquire base: %w", err)
			}
			entries = readBaseEntries(base)
		}
		if next != nil {
			nextEntries := readBaseEntries(next)
			if len(nextEntries) > 0 {
				// Advance CK before giving up the S lock (§7.1).
				r.pass3.setCK(nextEntries[0].key)
			}
		} else {
			r.pass3.setAllRead()
		}
		base.RLock()
		baseID, baseLSN := base.ID(), base.Data().LSN()
		base.RUnlock()
		h.Drop(base)

		for i, e := range entries {
			// The builder appends: a key not above the last one would
			// land below the separator it already posted.
			if (basesRead > 0 || i > 0) && kv.Compare(e.key, lastKey) <= 0 {
				return fmt.Errorf("pass3: base %d (page LSN %d, CK %q) hands key %q, not above the last key %q",
					baseID, baseLSN, lowMark, e.key, lastKey)
			}
			if err := b.add(e.key, e.child); err != nil {
				return err
			}
			lastKey = e.key
		}
		r.c.pass3Bases.Add(1)
		if err := r.event("pass3.base"); err != nil {
			return err
		}
		basesRead++
		if basesRead%stablePointEvery == 0 {
			if err := r.stablePoint(b, lastKey); err != nil {
				return err
			}
		}
		base = next
	}

	newRoot, err := b.finish()
	if err != nil {
		return err
	}
	if err := b.flushAll(); err != nil {
		return err
	}
	if err := r.event("pass3.built"); err != nil {
		return err
	}
	if err := r.stablePoint(b, lastKey); err != nil {
		return err
	}

	// Catch-up rounds: drain the side file while updaters may still be
	// appending. Leaf splits are rare, so this converges (§7).
	apply := func(e sidefile.Entry) error { return r.applySideEntry(b, &newRoot, e) }
	for round := 0; round < 1000; round++ {
		n, err := sf.Drain(apply)
		if err != nil {
			return err
		}
		r.c.pass3SideApply.Add(int64(n))
		if n == 0 && sf.Pending() == 0 {
			break
		}
	}

	// Switch (§7.4): X on the side file freezes base pages; apply the
	// residue; make everything durable; flip the anchor.
	if err := h.Lock(lock.SideFileRes(), lock.X); err != nil {
		return fmt.Errorf("pass3 sidefile X: %w", err)
	}
	n, err := sf.Drain(apply)
	if err != nil {
		return err
	}
	r.c.pass3SideApply.Add(int64(n))
	if err := pg.FlushAll(); err != nil {
		return err
	}
	newHeight, err := treeHeightOf(pg, newRoot)
	if err != nil {
		return err
	}
	// The two sides of the commit point: a crash at switch.pre loses the
	// switch entirely (the new tree is garbage-collected at restart); a
	// crash at switch.durable must complete the switch forward from the
	// durable SwitchRoot record even though the anchor never made disk.
	if err := r.event("pass3.switch.pre"); err != nil {
		return err
	}
	committed = true
	lsn := r.tree.Log().Append(wal.SwitchRoot{OldRoot: oldRoot,
		NewRoot: newRoot, NewHeight: uint32(newHeight), NewEpoch: oldEpoch + 1})
	if err := r.tree.Log().FlushTo(lsn); err != nil {
		return err
	}
	if err := r.event("pass3.switch.durable"); err != nil {
		return err
	}
	if err := r.tree.SwitchRoot(newRoot, oldEpoch+1); err != nil {
		return err
	}
	r.pass3.setSwitched()
	if err := r.event("pass3.switched"); err != nil {
		return err
	}

	// Wait for transactions still using the old tree, then reclaim its
	// internal pages (the leaves are shared and stay).
	if err := r.tree.Locks().Lock(r.owner, lock.TreeRes(oldEpoch), lock.X); err != nil {
		return fmt.Errorf("pass3 old-tree X: %w", err)
	}
	if err := r.discardOldInternals(oldRoot); err != nil {
		return err
	}

	// Reclaim the side file BEFORE clearing the reorg bit: the anchor's
	// bit and side-file head are how restart finds an interrupted
	// cleanup, so they must outlive every page this reclaims. (The hook
	// is inert already: post-switch it answers ErrSwitched.)
	if err := sf.Destroy(); err != nil {
		return err
	}
	if err := r.tree.SetReorgBit(false, storage.InvalidPage); err != nil {
		return err
	}
	r.tree.SetReorgHook(nil)
	r.pass3.finish()
	return nil
}

// abandon undoes a pass 3 that failed live before its commit point: the
// hook goes, so no updater appends to the side file any more; X on the
// side file waits out the ones appending now; then the side file and
// every page the builder allocated are freed, each with a logged
// Dealloc, and the reorganization bit is cleared last, so that a crash
// in between leaves restart's ReclaimPass3 the remainder. On error the
// bit stays set.
func (r *Reorganizer) abandon(h *btree.Hold, sf *sidefile.SideFile, b *builder) error {
	r.tree.SetReorgHook(nil)
	r.pass3.finish()
	if err := h.Lock(lock.SideFileRes(), lock.X); err != nil {
		return fmt.Errorf("pass3 abandon: sidefile X: %w", err)
	}
	if err := sf.Destroy(); err != nil {
		return fmt.Errorf("pass3 abandon: %w", err)
	}
	if err := b.discard(); err != nil {
		return fmt.Errorf("pass3 abandon: %w", err)
	}
	return r.tree.SetReorgBit(false, storage.InvalidPage)
}

// stablePointEvery is how many base pages pass 3 reads between two
// stable points (§7.3).
const stablePointEvery = 5

// stablePoint forces the builder's pages to disk and logs the stable
// key (§7.3). After it, log records before the stable key are no
// longer needed to rebuild the new tree.
func (r *Reorganizer) stablePoint(b *builder, lastKey []byte) error {
	if err := b.flushAll(); err != nil {
		return err
	}
	lsn := r.tree.Log().Append(wal.StableKey{Key: append([]byte(nil), lastKey...),
		NewRoot: b.topPage()})
	if err := r.tree.Log().FlushTo(lsn); err != nil {
		return err
	}
	r.c.pass3Stable.Add(1)
	return r.event("pass3.stable")
}

// applySideEntry replays one captured base change against the new tree
// (private until the switch, so plain latched access suffices).
func (r *Reorganizer) applySideEntry(b *builder, newRoot *storage.PageID, e sidefile.Entry) error {
	if err := r.event("pass3.side"); err != nil {
		return err
	}
	switch e.Op {
	case wal.OpInsert:
		root, err := b.insert(*newRoot, e.Key, e.Child)
		if err != nil {
			return err
		}
		*newRoot = root
		return nil
	case wal.OpDelete:
		return newTreeDelete(r.tree.Pager(), *newRoot, e.Key)
	default:
		return fmt.Errorf("core: side entry op %v", e.Op)
	}
}

// discardOldInternals deallocates the old tree's internal pages after
// all old-tree transactions have drained. A crash inside the loop needs
// no particular order: ReclaimPass3 finds what is left by page type.
func (r *Reorganizer) discardOldInternals(oldRoot storage.PageID) error {
	pg := r.tree.Pager()
	internals, err := internalsUnder(pg, oldRoot)
	if err != nil {
		return err
	}
	for i := len(internals) - 1; i >= 0; i-- {
		lsn := r.tree.Log().Append(wal.Dealloc{Page: internals[i]})
		if err := pg.Deallocate(internals[i], lsn); err != nil {
			return err
		}
		r.c.pagesFreed.Add(1)
	}
	return nil
}

// internalsUnder lists the internal pages of the tree rooted at root,
// parents before children; the leaves are not visited. A page it cannot
// read is an error, never a shorter list.
func internalsUnder(pg *storage.Pager, root storage.PageID) ([]storage.PageID, error) {
	var internals []storage.PageID
	err := btree.Walk(pg, root, func(n *btree.Node) (btree.Step, error) {
		if n.Page.Type() != storage.PageInternal {
			return btree.SkipChildren, nil
		}
		internals = append(internals, n.ID)
		if n.Page.Aux() <= 1 {
			return btree.SkipChildren, nil
		}
		return btree.Descend, nil
	})
	if err != nil {
		return nil, err
	}
	return internals, nil
}

// ReclaimPass3 is how restart cleans up a pass 3 that did not finish;
// recovery.Restart calls it when the anchor's reorganization bit is
// set. sw is the last SwitchRoot record redo saw, nil if none. That
// record is the switch's commit point (the new tree and the final
// side-file drain are forced before it is appended), so if it is
// durable and the anchor still names its OldRoot the switch is finished
// forward rather than abandoning a fully-built tree.
//
// Everything else is read off the page states, not off any list kept or
// logged while the pass ran. completed: every page a pass 3 allocates
// goes past the high-water mark, the side-file head first, so the
// anchor's root is this pass's new tree exactly when it lies above the
// anchor's side-file head (a SwitchRoot record naming the root may be
// an earlier pass's, and this pass's may lie below the redo point).
// Garbage: every side-file page, and every internal page the root does
// not reach — the old tree after the switch, the half-built new tree
// before it. A scan of stable types is authoritative only here,
// single-threaded and after a FlushAll; the live tail of
// RebuildInternal walks from the old root it holds under X. The bit is
// cleared last, so a crash inside the reclaim re-enters it and finds
// the remainder the same way.
func ReclaimPass3(tree *btree.Tree, sw *wal.SwitchRoot) (completed bool, err error) {
	pg, log := tree.Pager(), tree.Log()
	root, _ := tree.Root()
	if sw != nil && sw.OldRoot == root {
		if err := tree.SwitchRoot(sw.NewRoot, sw.NewEpoch); err != nil {
			return false, fmt.Errorf("pass3 reclaim: completing root switch: %w", err)
		}
		root = sw.NewRoot
	}
	_, sideHead := tree.ReorgState()
	completed = root > sideHead
	if err := pg.FlushAll(); err != nil {
		return false, err
	}
	live, err := internalsUnder(pg, root)
	if err != nil {
		return false, fmt.Errorf("pass3 reclaim: walking the live tree: %w", err)
	}
	keep := make(map[storage.PageID]bool, len(live))
	for _, id := range live {
		keep[id] = true
	}
	for i, typ := range pg.Disk().ScanTypes() {
		id := storage.PageID(i)
		garbage := typ == storage.PageSideFile || typ == storage.PageInternal && !keep[id]
		if !garbage {
			continue
		}
		lsn := log.Append(wal.Dealloc{Page: id})
		if err := pg.Deallocate(id, lsn); err != nil {
			return false, err
		}
	}
	return completed, tree.SetReorgBit(false, storage.InvalidPage)
}

func treeHeightOf(pg *storage.Pager, root storage.PageID) (int, error) {
	f, err := pg.Fix(root)
	if err != nil {
		return 0, err
	}
	defer pg.Unfix(f)
	f.RLock()
	defer f.RUnlock()
	return int(f.Data().Aux()) + 1, nil
}
