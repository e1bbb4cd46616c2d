package main

import (
	"math/rand"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Layer probes time single calls into the live, warmed layer objects
// between measured segments, giving the unit costs the closure check
// multiplies the layer counts with. They run only in the traced run,
// outside every measured segment, and leave the database as it was:
//
//   - lock:  Lock + ReleaseAll of a record resource no transaction uses;
//   - wal:   Append (and Append + FlushTo) of a StableKey record, which
//     redo treats as bookkeeping only;
//   - pool:  Fix + Unfix of the root (resident) and, when the pool is
//     bounded and the tree is quiescent, of random allocated pages,
//     classified as hit or miss by the pool's own miss counter;
//   - disk:  Read of the anchor page's stable image, Write of the same
//     bytes back, Sync.
type probeStats struct {
	lockRelease, walAppend, walForce hist
	fixHit, fixMiss                  hist
	diskRead, diskWrite, diskSync    hist
}

const (
	probeRounds     = 32
	probeRecordSize = 150 // bytes of a typical single-record update's log records
)

// probe runs one round of every probe. quiescent says no reorganizer or
// daemon is running, so random pages may be fixed safely.
func (e *env) probe(quiescent bool) {
	tree := e.db.Tree()
	p := &e.probes
	var parent uint64
	var tr *tracer
	if len(e.cl) > 0 && e.cl[0].tr != nil {
		tr = e.cl[0].tr
		parent = tr.newID()
	}
	from := e.now()

	locks := tree.Locks()
	const owner = uint64(1) << 62
	for i := 0; i < probeRounds; i++ {
		res := lock.RecordRes(uint64(1)<<63 | uint64(i))
		t0 := e.now()
		err := locks.Lock(owner, res, lock.X)
		locks.ReleaseAll(owner)
		if err == nil {
			p.lockRelease.record(e.now() - t0)
		}
	}

	log := tree.Log()
	rec := wal.StableKey{Key: make([]byte, probeRecordSize-16)}
	for i := 0; i < probeRounds; i++ {
		t0 := e.now()
		log.Append(rec)
		p.walAppend.record(e.now() - t0)
	}
	for i := 0; i < probeRounds/2; i++ {
		t0 := e.now()
		lsn := log.Append(rec)
		if err := log.FlushTo(lsn); err == nil {
			p.walForce.record(e.now() - t0)
		}
	}

	pager := tree.Pager()
	fix := func(id storage.PageID) {
		before := pager.Stats().Misses.Load()
		t0 := e.now()
		f, err := pager.Fix(id)
		if err != nil {
			return
		}
		pager.Unfix(f)
		d := e.now() - t0
		if pager.Stats().Misses.Load() != before {
			p.fixMiss.record(d)
		} else {
			p.fixHit.record(d)
		}
	}
	root, _ := tree.Root()
	for i := 0; i < probeRounds; i++ {
		fix(root)
	}
	if quiescent && e.opts.BufferPoolPages > 0 {
		r := rand.New(rand.NewSource(int64(p.fixMiss.n) + 1))
		fm := pager.FreeMap()
		high := int(fm.HighWater())
		for i := 0; i < 4*probeRounds && high > 2; i++ {
			id := storage.PageID(2 + r.Intn(high-1))
			if fm.IsAllocated(id) {
				fix(id)
			}
		}
	}

	e.probeDisk()
	if tr != nil {
		tr.add(parent, e.workloadSpan, spProbe, spWorkload, 0, from, e.now())
	}
}

// probeDisk reads the anchor page's stable image, writes the same bytes
// back and syncs: the device's unit costs, with the database unchanged.
func (e *env) probeDisk() {
	p := &e.probes
	// The WAL rule (reorg-vet): no page image reaches the device ahead
	// of the log, not even one that is already stable.
	if err := e.db.Tree().Log().Flush(); err != nil {
		return
	}
	disk := e.db.Tree().Pager().Disk()
	buf := make([]byte, disk.PageSize())
	for i := 0; i < probeRounds/2; i++ {
		t0 := e.now()
		if err := disk.Read(btree.AnchorPage, buf); err != nil {
			return
		}
		t1 := e.now()
		if err := disk.Write(btree.AnchorPage, buf); err != nil {
			return
		}
		t2 := e.now()
		if err := disk.Sync(); err != nil {
			return
		}
		t3 := e.now()
		p.diskRead.record(t1 - t0)
		p.diskWrite.record(t2 - t1)
		p.diskSync.record(t3 - t2)
	}
}
