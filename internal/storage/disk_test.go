package storage

import (
	"path/filepath"
	"testing"
)

func TestMarkFreeStampsFreeImage(t *testing.T) {
	d := NewDisk(MinPageSize)
	img := make(Page, MinPageSize)
	FormatPage(img, PageLeaf, 5)
	img.SetLSN(3)
	if err := d.Write(5, img); err != nil {
		t.Fatal(err)
	}
	s0 := d.Stats().Snapshot()

	d.MarkFree(5, 7)

	// Freeing is an allocation-bitmap update, not a page transfer: no
	// data I/O may be charged.
	s1 := d.Stats().Snapshot()
	if s1.Reads != s0.Reads || s1.Writes != s0.Writes {
		t.Errorf("MarkFree charged I/O: reads %d->%d writes %d->%d", s0.Reads, s1.Reads, s0.Writes, s1.Writes)
	}
	got := make(Page, MinPageSize)
	if err := d.Read(5, got); err != nil {
		t.Fatal(err)
	}
	if got.Type() != PageFree {
		t.Errorf("stable type = %v, want free", got.Type())
	}
	if got.LSN() != 7 {
		t.Errorf("free image LSN = %d, want 7 (orders deallocation against redo)", got.LSN())
	}
}

func TestMarkFreeGrowsDiskAndIgnoresInvalid(t *testing.T) {
	d := NewDisk(MinPageSize)
	d.MarkFree(InvalidPage, 1) // must not panic
	d.MarkFree(9, 2)           // beyond current extent
	types := d.ScanTypes()
	if len(types) != 10 {
		t.Fatalf("extent = %d pages after MarkFree(9), want 10", len(types))
	}
	if types[9] != PageFree {
		t.Errorf("page 9 type = %v, want free", types[9])
	}
}

func TestScanTypes(t *testing.T) {
	d := NewDisk(MinPageSize)
	write := func(id PageID, typ PageType) {
		img := make(Page, MinPageSize)
		FormatPage(img, typ, id)
		if err := d.Write(id, img); err != nil {
			t.Fatal(err)
		}
	}
	write(1, PageAnchor)
	write(2, PageLeaf)
	write(4, PageInternal) // page 3 never written
	d.MarkFree(2, 5)       // freed after use

	r0 := d.Stats().Snapshot().Reads
	types := d.ScanTypes()
	if r1 := d.Stats().Snapshot().Reads; r1 != r0 {
		t.Errorf("ScanTypes charged %d reads (stands in for the allocation bitmap)", r1-r0)
	}
	want := []PageType{PageFree, PageAnchor, PageFree, PageFree, PageInternal}
	if len(types) != len(want) {
		t.Fatalf("ScanTypes len = %d, want %d", len(types), len(want))
	}
	for i, typ := range want {
		if types[i] != typ {
			t.Errorf("page %d type = %v, want %v", i, types[i], typ)
		}
	}
}

// TestRebuildFreeMap covers the restart path: recovery reconstructs the
// allocation map from stable page headers, so pages freed before the
// crash must be allocatable again and live pages must not be handed out.
func TestRebuildFreeMap(t *testing.T) {
	d := NewDisk(MinPageSize)
	wal := &fakeWAL{}
	p := NewPager(d, 8, wal)
	var ids []PageID
	for i := 0; i < 4; i++ {
		f, err := p.Allocate(PageLeaf)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		p.Unfix(f)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Deallocate(ids[1], 10); err != nil {
		t.Fatal(err)
	}

	// Simulate restart: a fresh pager over the surviving disk.
	p2 := NewPager(d, 8, wal)
	p2.RebuildFreeMap()
	if got := p2.FirstFreeIn(0, ids[3]+1); got != ids[1] {
		t.Errorf("FirstFreeIn after rebuild = %d, want freed page %d", got, ids[1])
	}
	f, err := p2.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != ids[1] {
		t.Errorf("rebuilt map allocated page %d, want reuse of freed %d", f.ID(), ids[1])
	}
	p2.Unfix(f)
	// The remaining live pages must not be reused: the next allocation
	// has to extend past the rebuilt high-water mark.
	g, err := p2.Allocate(PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if g.ID() == id && id != ids[1] {
			t.Errorf("rebuilt map re-allocated live page %d", id)
		}
	}
	p2.Unfix(g)
}

// TestSnapshotSeeks checks the seek model: a read is a seek unless it
// targets the page immediately after the previous read.
func TestSnapshotSeeks(t *testing.T) {
	d := NewDisk(MinPageSize)
	buf := make([]byte, MinPageSize)
	for _, id := range []PageID{3, 4, 5, 9, 10, 2} {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats().Snapshot()
	if s.Reads != 6 || s.Writes != 0 {
		t.Fatalf("reads/writes = %d/%d, want 6/0", s.Reads, s.Writes)
	}
	// Seeks: 3 (cold), 9 (gap), 2 (backwards); 4, 5, 10 are sequential.
	if s.Seeks != 3 {
		t.Errorf("seeks = %d, want 3", s.Seeks)
	}
}

// TestStableLSNNeverGoesBackwards: on both backends a free stamp keeps
// the higher of its LSN and the stable image's, and StableLSN reads it
// back without charging I/O, so a page's stable LSN only grows across
// deallocation and reuse (redo of a split tells an old incarnation
// from a new one by it).
func TestStableLSNNeverGoesBackwards(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		var d Disk = NewDisk(MinPageSize)
		if backend == "file" {
			fd := openFileDisk(t, filepath.Join(t.TempDir(), "pages.db"), MinPageSize)
			defer fd.Close()
			d = fd
		}
		if got := d.StableLSN(4); got != 0 {
			t.Errorf("%s: never-written page has stable LSN %d, want 0", backend, got)
		}
		img := make(Page, MinPageSize)
		FormatPage(img, PageLeaf, 4)
		img.SetLSN(50)
		if err := d.Write(4, img); err != nil {
			t.Fatal(err)
		}
		s0 := d.Stats().Snapshot()
		for _, step := range []struct {
			free, want uint64
		}{{0, 50}, {30, 50}, {80, 80}} {
			d.MarkFree(4, step.free)
			if got := d.StableLSN(4); got != step.want {
				t.Errorf("%s: MarkFree(%d) left stable LSN %d, want %d", backend, step.free, got, step.want)
			}
			if typ := d.ScanTypes()[4]; typ != PageFree {
				t.Errorf("%s: MarkFree(%d) left type %v", backend, step.free, typ)
			}
		}
		if s1 := d.Stats().Snapshot(); s1.Reads != s0.Reads || s1.Writes != s0.Writes {
			t.Errorf("%s: StableLSN and MarkFree charged I/O", backend)
		}
	}
}
