package storage

import (
	"path/filepath"
	"sync"
	"testing"
)

// fakeWAL records the highest LSN it was asked to make durable.
// Concurrent evictions flush frames from several goroutines at once,
// so the fake needs the same thread-safety a real log has.
type fakeWAL struct {
	mu        sync.Mutex
	flushedTo uint64
	calls     int
}

func (w *fakeWAL) FlushTo(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	if lsn > w.flushedTo {
		w.flushedTo = lsn
	}
	return nil
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk(MinPageSize)
	img := make(Page, MinPageSize)
	FormatPage(img, PageLeaf, 3)
	img.SetLSN(9)
	if err := d.Write(3, img); err != nil {
		t.Fatal(err)
	}
	got := make(Page, MinPageSize)
	if err := d.Read(3, got); err != nil {
		t.Fatal(err)
	}
	if got.ID() != 3 || got.LSN() != 9 || got.Type() != PageLeaf {
		t.Errorf("round trip lost header: id=%d lsn=%d type=%v", got.ID(), got.LSN(), got.Type())
	}
	s := d.Stats().Snapshot()
	if s.Reads != 1 || s.Writes != 1 {
		t.Errorf("stats = %d reads %d writes, want 1/1", s.Reads, s.Writes)
	}
}

func TestDiskReadUnwritten(t *testing.T) {
	d := NewDisk(MinPageSize)
	buf := make(Page, MinPageSize)
	buf[0] = 0xFF
	if err := d.Read(99, buf); err != nil {
		t.Fatal(err)
	}
	if buf.Type() != PageFree {
		t.Errorf("unwritten page type = %v, want free", buf.Type())
	}
}

func TestDiskRejectsBadArgs(t *testing.T) {
	d := NewDisk(MinPageSize)
	if err := d.Read(InvalidPage, make([]byte, MinPageSize)); err == nil {
		t.Error("read of page 0 should fail")
	}
	if err := d.Write(1, make([]byte, 10)); err == nil {
		t.Error("short write should fail")
	}
	if err := d.Read(1, make([]byte, 10)); err == nil {
		t.Error("short read should fail")
	}
}

func TestPagerAllocateFixUnfix(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	f, err := p.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	if id == InvalidPage {
		t.Fatal("allocated invalid page")
	}
	if f.Data().Type() != PageLeaf {
		t.Errorf("fresh frame type = %v", f.Data().Type())
	}
	p.Unfix(f)

	f2, err := p.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Error("Fix of resident page returned a different frame")
	}
	p.Unfix(f2)
}

func TestPagerDirtyLostOnCrashCleanSurvives(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	f, _ := p.Allocate(PageLeaf)
	id := f.ID()
	f.Lock()
	if err := f.Data().InsertCell(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	f.Unlock()
	p.MarkDirty(f, 5)
	p.Unfix(f)
	if err := p.FlushPage(id); err != nil {
		t.Fatal(err)
	}

	// Second page: dirtied but never flushed.
	g, _ := p.Allocate(PageLeaf)
	gid := g.ID()
	g.Lock()
	if err := g.Data().InsertCell(0, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	g.Unlock()
	p.MarkDirty(g, 6)
	p.Unfix(g)

	p.Crash()

	f2, err := p.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Data().NumSlots() != 1 || string(f2.Data().Cell(0)) != "durable" {
		t.Error("flushed page content lost across crash")
	}
	p.Unfix(f2)

	g2, err := p.Fix(gid)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Data().NumSlots() != 0 {
		t.Error("unflushed page content survived crash")
	}
	p.Unfix(g2)
}

func TestPagerWALRuleOnFlush(t *testing.T) {
	d := NewDisk(MinPageSize)
	w := &fakeWAL{}
	p := NewPager(d, 0, w)
	f, _ := p.Allocate(PageLeaf)
	p.MarkDirty(f, 123)
	p.Unfix(f)
	if err := p.FlushPage(f.ID()); err != nil {
		t.Fatal(err)
	}
	if w.flushedTo < 123 {
		t.Errorf("WAL flushed to %d before page write, want >= 123", w.flushedTo)
	}
}

func TestPagerEvictionWritesBack(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 2, nil)
	var ids []PageID
	for i := 0; i < 4; i++ {
		f, err := p.Allocate(PageLeaf)
		if err != nil {
			t.Fatal(err)
		}
		f.Lock()
		if err := f.Data().InsertCell(0, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		f.Unlock()
		p.MarkDirty(f, uint64(i+1))
		ids = append(ids, f.ID())
		p.Unfix(f)
	}
	// Capacity 2 with 4 pages touched: earlier pages must have been
	// evicted (written back). Re-fixing them must show their content.
	for i, id := range ids {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data().NumSlots() != 1 || f.Data().Cell(0)[0] != byte('a'+i) {
			t.Errorf("page %d content lost through eviction", id)
		}
		p.Unfix(f)
	}
	if d.Stats().Snapshot().Writes == 0 {
		t.Error("eviction never wrote to disk")
	}
}

func TestCarefulWriteDependency(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	src, _ := p.Allocate(PageLeaf)
	dst, _ := p.Allocate(PageLeaf)
	dst.Lock()
	if err := dst.Data().InsertCell(0, []byte("moved")); err != nil {
		t.Fatal(err)
	}
	dst.Unlock()
	p.MarkDirty(src, 1)
	p.MarkDirty(dst, 2)
	// src must not hit disk before dst.
	p.AddWriteDep(src.ID(), dst.ID())
	p.Unfix(src)
	p.Unfix(dst)
	if err := p.FlushPage(src.ID()); err != nil {
		t.Fatal(err)
	}
	// dst must now be stable.
	p.Crash()
	f, err := p.Fix(dst.ID())
	if err != nil {
		t.Fatal(err)
	}
	if f.Data().NumSlots() != 1 || string(f.Data().Cell(0)) != "moved" {
		t.Error("careful-write dependency did not force destination flush")
	}
	p.Unfix(f)
}

func TestCarefulWriteCycleDetected(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	a, _ := p.Allocate(PageLeaf)
	b, _ := p.Allocate(PageLeaf)
	p.MarkDirty(a, 1)
	p.MarkDirty(b, 2)
	p.AddWriteDep(a.ID(), b.ID())
	p.AddWriteDep(b.ID(), a.ID())
	p.Unfix(a)
	p.Unfix(b)
	if err := p.FlushPage(a.ID()); err == nil {
		t.Error("dependency cycle should be reported")
	}
}

func TestDeallocateHonoursDependencies(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	src, _ := p.Allocate(PageLeaf)
	dst, _ := p.Allocate(PageLeaf)
	dst.Lock()
	if err := dst.Data().InsertCell(0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	dst.Unlock()
	p.MarkDirty(dst, 3)
	srcID, dstID := src.ID(), dst.ID()
	p.AddWriteDep(srcID, dstID)
	p.Unfix(src)
	p.Unfix(dst)
	if err := p.Deallocate(srcID, 0); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	f, err := p.Fix(dstID)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data().NumSlots() != 1 {
		t.Error("deallocate dropped source before destination was stable")
	}
	p.Unfix(f)
	// Source page must scan as free after restart.
	p.RebuildFreeMap()
	if p.FreeMap().IsAllocated(srcID) {
		t.Error("deallocated page still marked allocated after rebuild")
	}
}

func TestDeallocatePinnedFails(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	f, _ := p.Allocate(PageLeaf)
	if err := p.Deallocate(f.ID(), 0); err == nil {
		t.Error("deallocating a pinned page should fail")
	}
	p.Unfix(f)
}

func TestAllocateInInterval(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	var frames []*Frame
	for i := 0; i < 6; i++ {
		f, _ := p.Allocate(PageLeaf)
		frames = append(frames, f)
		p.Unfix(f)
	}
	// Free page 3 (0-indexed frame 2 has id 3 given anchor reservation
	// patterns: just use the actual ids).
	mid := frames[2].ID()
	if err := p.Deallocate(mid, 0); err != nil {
		t.Fatal(err)
	}
	lo, hi := frames[0].ID(), frames[5].ID()
	f, err := p.AllocateIn(lo, hi, PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || f.ID() != mid {
		t.Fatalf("AllocateIn picked %v, want %d", f, mid)
	}
	p.Unfix(f)
	// No more free pages in the interval now.
	f2, err := p.AllocateIn(lo, hi, PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != nil {
		t.Errorf("AllocateIn found %d in a full interval", f2.ID())
	}
}

func TestAllocateEndBeyondHighWater(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 0, nil)
	a, _ := p.Allocate(PageLeaf)
	p.Unfix(a)
	if err := p.Deallocate(a.ID(), 0); err != nil {
		t.Fatal(err)
	}
	e, err := p.AllocateEnd(PageInternal)
	if err != nil {
		t.Fatal(err)
	}
	if e.ID() <= a.ID() {
		t.Errorf("AllocateEnd reused id %d, want beyond high water", e.ID())
	}
	p.Unfix(e)
}

func TestFreeMapFirstFreeIn(t *testing.T) {
	f := NewFreeMap()
	for i := 0; i < 10; i++ {
		f.Allocate()
	}
	f.Free(4)
	f.Free(7)
	if got := f.FirstFreeIn(2, 9); got != 4 {
		t.Errorf("FirstFreeIn(2,9) = %d, want 4", got)
	}
	if got := f.FirstFreeIn(4, 9); got != 7 {
		t.Errorf("FirstFreeIn(4,9) = %d, want 7", got)
	}
	if got := f.FirstFreeIn(7, 9); got != InvalidPage {
		t.Errorf("FirstFreeIn(7,9) = %d, want invalid", got)
	}
	// Allocate must reuse the lowest freed page.
	if got := f.Allocate(); got != 4 {
		t.Errorf("Allocate = %d, want 4", got)
	}
	ids := f.FreeIDs()
	if len(ids) != 1 || ids[0] != 7 {
		t.Errorf("FreeIDs = %v, want [7]", ids)
	}
}

func TestFixInvalidPage(t *testing.T) {
	p := NewPager(NewDisk(MinPageSize), 0, nil)
	if _, err := p.Fix(InvalidPage); err == nil {
		t.Error("Fix(0) should fail")
	}
}

// depPair allocates a dirty page and a page that waits on it, as a
// split leaves them, and returns their ids unpinned.
func depPair(t *testing.T, p *Pager) (page, target PageID) {
	t.Helper()
	tf, err := p.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := p.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	p.MarkDirty(tf, 1)
	p.MarkDirty(pf, 1)
	p.AddWriteDep(pf.ID(), tf.ID())
	p.Unfix(tf)
	p.Unfix(pf)
	return pf.ID(), tf.ID()
}

func filePager(t *testing.T) (*Pager, *FileDisk) {
	t.Helper()
	d := openFileDisk(t, filepath.Join(t.TempDir(), "pages.db"), MinPageSize)
	t.Cleanup(func() { d.Close() })
	return NewPager(d, 0, nil), d
}

// TestFlushAllSyncsOncePerRound: FlushAll writes every target in one
// round and every page waiting on them in the next, one Sync after each
// round, however many dependencies there are — and its last Sync is what
// makes a checkpoint's pages durable.
func TestFlushAllSyncsOncePerRound(t *testing.T) {
	p, d := filePager(t)
	var pairs [][2]PageID
	for i := 0; i < 4; i++ {
		page, target := depPair(t, p)
		pairs = append(pairs, [2]PageID{page, target})
	}
	s0 := d.Stats().Snapshot()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	s1 := d.Stats().Snapshot()
	if w := s1.Writes - s0.Writes; w != 8 {
		t.Errorf("FlushAll wrote %d pages, want 8", w)
	}
	if n := s1.Fsyncs - s0.Fsyncs; n != 2 {
		t.Errorf("FlushAll synced %d times for 4 dependencies, want 2 (one per round)", n)
	}
	for _, pr := range pairs {
		if d.StableLSN(pr[1]) != 1 {
			t.Errorf("target %d not written", pr[1])
		}
	}

	// A run of splits, each new page split again before a flush, leaves
	// a chain: every link is a barrier of its own, one round each.
	var chain []PageID
	for i := 0; i < 5; i++ {
		f, err := p.Allocate(PageLeaf)
		if err != nil {
			t.Fatal(err)
		}
		p.MarkDirty(f, 2)
		chain = append(chain, f.ID())
		p.Unfix(f)
	}
	for i := 0; i+1 < len(chain); i++ {
		p.AddWriteDep(chain[i], chain[i+1])
	}
	s0 = d.Stats().Snapshot()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().Snapshot().Fsyncs - s0.Fsyncs; n != int64(len(chain)) {
		t.Errorf("FlushAll synced %d times for a chain of %d pages, want one per page", n, len(chain))
	}
}

// TestWrittenTargetStillSynced: a target written (by an eviction, say)
// but not yet synced is not durable; the page waiting on it syncs before
// it is written, and a target synced since costs nothing more.
func TestWrittenTargetStillSynced(t *testing.T) {
	p, d := filePager(t)
	page, target := depPair(t, p)
	if err := p.FlushPage(target); err != nil {
		t.Fatal(err)
	}
	s0 := d.Stats().Snapshot()
	if err := p.FlushPage(page); err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().Snapshot().Fsyncs - s0.Fsyncs; n != 1 {
		t.Errorf("flushing a page whose target was written but not synced synced %d times, want 1", n)
	}

	page, target = depPair(t, p)
	if err := p.FlushPage(target); err != nil {
		t.Fatal(err)
	}
	if err := p.sync(); err != nil {
		t.Fatal(err)
	}
	s0 = d.Stats().Snapshot()
	if err := p.FlushPage(page); err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().Snapshot().Fsyncs - s0.Fsyncs; n != 0 {
		t.Errorf("flushing a page whose target is already durable synced %d times, want 0", n)
	}
}

// TestPrepareWriteDepBreaksCycle: a page about to wait on a page that
// already waits on it (a unit moving a split's new page back into the
// old one) is written and synced first, so no dependency cycle forms.
func TestPrepareWriteDepBreaksCycle(t *testing.T) {
	p, d := filePager(t)
	old, fresh := depPair(t, p)
	// Without the preparation the reverse edge closes a cycle.
	p.AddWriteDep(fresh, old)
	if err := p.FlushPage(old); err == nil {
		t.Fatal("a dependency cycle flushed without error")
	}

	p, d = filePager(t)
	old, fresh = depPair(t, p)
	if err := p.PrepareWriteDep(fresh, old); err != nil {
		t.Fatal(err)
	}
	if d.StableLSN(fresh) != 1 {
		t.Fatal("PrepareWriteDep did not write the page about to wait")
	}
	f, err := p.Fix(old)
	if err != nil {
		t.Fatal(err)
	}
	f.Lock()
	p.MarkDirty(f, 2)
	p.AddWriteDep(fresh, old)
	f.Unlock()
	p.Unfix(f)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll after PrepareWriteDep: %v", err)
	}
	// A pair with no edge between them needs no preparation.
	s0 := d.Stats().Snapshot()
	if err := p.PrepareWriteDep(old, fresh); err != nil {
		t.Fatal(err)
	}
	if s1 := d.Stats().Snapshot(); s1.Writes != s0.Writes || s1.Fsyncs != s0.Fsyncs {
		t.Error("PrepareWriteDep wrote or synced with no cycle to break")
	}
}

// TestClockPassesOverWaitingVictims: CLOCK's first sweep passes over a
// dirty frame that waits on an image not yet on media and takes the
// next frame instead.
func TestClockPassesOverWaitingVictims(t *testing.T) {
	p := NewPager(NewDisk(MinPageSize), 4, nil)
	if p.ShardCount() != 1 {
		t.Fatalf("%d shards, want 1", p.ShardCount())
	}
	waiting, target := depPair(t, p) // slots 1 and 0
	var others []PageID
	for i := 0; i < 2; i++ {
		f, err := p.Allocate(PageLeaf)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, f.ID())
		p.Unfix(f)
	}
	// The first eviction clears every reference bit and takes the
	// target (slot 0), writing it without a Sync.
	f, err := p.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f)
	if p.lookup(target) != nil {
		t.Fatal("first eviction did not take the target")
	}
	// The hand now points at the waiting page: the next eviction
	// passes over it.
	f, err = p.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f)
	if p.lookup(waiting) == nil {
		t.Error("CLOCK evicted the page that waits on an unsynced image")
	}
	if p.lookup(others[0]) != nil {
		t.Errorf("CLOCK kept page %d and evicted another", others[0])
	}
}

// TestFreshPageStartsAtStableLSN: a page allocated again starts at the
// LSN of its free stamp, not at 0, so an image of it flushed before its
// first logged change still reads as newer than anything logged against
// its earlier incarnation.
func TestFreshPageStartsAtStableLSN(t *testing.T) {
	p := NewPager(NewDisk(MinPageSize), 0, nil)
	f, err := p.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	p.Unfix(f)
	if err := p.Deallocate(id, 40); err != nil {
		t.Fatal(err)
	}
	f, err = p.Allocate(PageInternal)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unfix(f)
	if f.ID() != id || f.Data().LSN() != 40 || f.Data().Type() != PageInternal {
		t.Errorf("reallocated page %d: LSN %d type %v, want page %d at LSN 40",
			f.ID(), f.Data().LSN(), f.Data().Type(), id)
	}
}
