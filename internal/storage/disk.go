package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// IOStats counts physical page transfers against stable storage.
// Seeks counts non-sequential reads (the head movement a range scan
// pays when key-adjacent leaves are not disk-adjacent — what pass 2
// eliminates). BytesRead/BytesWritten count real media traffic
// (including per-page frame headers on the file backend) so
// write-amplification can be computed honestly; Fsyncs counts forced
// media flushes (always zero on the in-memory backend).
type IOStats struct {
	Reads        atomic.Int64
	Writes       atomic.Int64
	Seeks        atomic.Int64
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
	Fsyncs       atomic.Int64
}

// IOSnapshot is a point-in-time view of every I/O counter. Each field
// is read individually atomically; exact cross-counter consistency is
// not needed by any consumer. The struct is the versioning mechanism:
// new counters become new fields, not new numbered methods.
type IOSnapshot struct {
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	Seeks        int64 `json:"seeks"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	Fsyncs       int64 `json:"fsyncs"`
}

// Snapshot returns the current counter values.
func (s *IOStats) Snapshot() IOSnapshot {
	return IOSnapshot{
		Reads:        s.Reads.Load(),
		Writes:       s.Writes.Load(),
		Seeks:        s.Seeks.Load(),
		BytesRead:    s.BytesRead.Load(),
		BytesWritten: s.BytesWritten.Load(),
		Fsyncs:       s.Fsyncs.Load(),
	}
}

// Disk is stable storage: whatever Write (and MarkFree) has made
// stable survives a crash; buffered frames do not. Two implementations
// exist: MemDisk, the in-memory simulation the tests and experiments
// default to, and FileDisk, a real page file with checksummed page
// frames and fsync.
type Disk interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// SetInjector installs the fault injector consulted at the
	// disk.read and disk.write fault points (nil disables injection).
	SetInjector(in *fault.Injector)
	// Stats exposes the I/O counters.
	Stats() *IOStats
	// NumPages returns the current extent in pages, including the
	// reserved page 0.
	NumPages() int
	// Read copies the stable image of page id into buf. A page never
	// written reads as a zeroed (PageFree) image. A stable image that
	// fails its integrity check surfaces ErrCorruptPage (file backend).
	Read(id PageID, buf []byte) error
	// Write makes the page image stable (crash-surviving).
	Write(id PageID, data []byte) error
	// MarkFree stamps the stable image of id as a free page without
	// charging data I/O: freeing is an allocation-bitmap update in a
	// real system, not a page transfer. The free image carries lsn, or
	// the stable image's own LSN if that is higher, so redo can order
	// deallocation against later reuse of the page.
	MarkFree(id PageID, lsn uint64)
	// StableLSN returns the pageLSN of id's stable image without
	// charging I/O (0 for a page never written or an image that fails
	// its integrity check). Allocation starts a fresh page there, so a
	// page's LSN never goes backwards across deallocation and reuse:
	// redo can tell any image written after a logged change from one
	// written before it.
	StableLSN(id PageID) uint64
	// ScanTypes reads the header type of every page without charging
	// I/O; it is used to rebuild the free map at restart (a real system
	// would keep an allocation bitmap; the scan stands in for reading
	// it).
	ScanTypes() []PageType
	// Sync forces all stable images to media (fsync on the file
	// backend; a no-op in memory).
	Sync() error
	// Close releases any underlying file handles. Idempotent.
	Close() error
}

// MemDisk is the simulated stable storage: an array of page images
// plus I/O accounting. Only what has been written here survives a
// simulated crash.
type MemDisk struct {
	pageSize int

	mu       sync.Mutex
	pages    [][]byte
	lastRead PageID
	inj      *fault.Injector

	stats IOStats
}

// NewDisk creates an in-memory disk with the given page size. Page 0
// exists but is never used (InvalidPage).
func NewDisk(pageSize int) *MemDisk {
	if pageSize < MinPageSize {
		panic(fmt.Sprintf("storage: page size %d below minimum %d", pageSize, MinPageSize))
	}
	return &MemDisk{
		pageSize: pageSize,
		pages:    make([][]byte, 1), // page 0 reserved
	}
}

// PageSize returns the disk's page size in bytes.
func (d *MemDisk) PageSize() int { return d.pageSize }

// SetInjector installs the fault injector consulted at the disk.read
// and disk.write fault points (nil disables injection).
func (d *MemDisk) SetInjector(in *fault.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = in
}

// Stats exposes the I/O counters.
func (d *MemDisk) Stats() *IOStats { return &d.stats }

// NumPages returns the current extent of the disk in pages, including
// the reserved page 0.
func (d *MemDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// ensure grows the disk so that id is addressable.
func (d *MemDisk) ensure(id PageID) {
	for PageID(len(d.pages)) <= id {
		d.pages = append(d.pages, nil)
	}
}

// Read copies the stable image of page id into buf. Reading a page that
// was never written yields a zeroed (PageFree) image.
func (d *MemDisk) Read(id PageID, buf []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("storage: read of invalid page")
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read buffer size %d != page size %d", len(buf), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	//vet:allow(nolockio) -- d.mu is the simulated device's own serialization; the fault point models the device itself
	if err := d.inj.Hit(fault.DiskRead); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	d.stats.Reads.Add(1)
	d.stats.BytesRead.Add(int64(d.pageSize))
	if id != d.lastRead+1 {
		d.stats.Seeks.Add(1)
	}
	d.lastRead = id
	if PageID(len(d.pages)) <= id || d.pages[id] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, d.pages[id])
	return nil
}

// Write makes the page image stable (crash-surviving).
func (d *MemDisk) Write(id PageID, data []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("storage: write of invalid page")
	}
	if len(data) != d.pageSize {
		return fmt.Errorf("storage: write buffer size %d != page size %d", len(data), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensure(id)
	if d.pages[id] == nil {
		d.pages[id] = make([]byte, d.pageSize)
	}
	// disk.write is tear-capable: a torn crash makes only the first
	// half of the new image stable before the failure.
	//vet:allow(nolockio) -- d.mu is the simulated device's own serialization; the fault point models the device itself
	if err := d.inj.HitTorn(fault.DiskWrite, func() {
		copy(d.pages[id][:d.pageSize/2], data[:d.pageSize/2])
	}); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(int64(d.pageSize))
	copy(d.pages[id], data)
	return nil
}

// MarkFree stamps the stable image of id as a free page without
// charging data I/O. The free image carries lsn (or the image's own
// LSN, if higher) so redo can order deallocation against later reuse
// of the page.
func (d *MemDisk) MarkFree(id PageID, lsn uint64) {
	if id == InvalidPage {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensure(id)
	if d.pages[id] == nil {
		d.pages[id] = make([]byte, d.pageSize)
	}
	lsn = max(lsn, Page(d.pages[id]).LSN())
	FormatPage(d.pages[id], PageFree, id)
	Page(d.pages[id]).SetLSN(lsn)
}

// StableLSN returns the pageLSN of id's stable image (0 if never
// written) without charging I/O.
func (d *MemDisk) StableLSN(id PageID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if PageID(len(d.pages)) <= id || d.pages[id] == nil {
		return 0
	}
	return Page(d.pages[id]).LSN()
}

// ScanTypes reads the header type of every page without charging I/O.
func (d *MemDisk) ScanTypes() []PageType {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PageType, len(d.pages))
	for i, img := range d.pages {
		if i == 0 || img == nil {
			out[i] = PageFree
			continue
		}
		out[i] = Page(img).Type()
	}
	return out
}

// Sync is a no-op: memory is this backend's "media".
func (d *MemDisk) Sync() error { return nil }

// Close is a no-op; the in-memory disk holds no handles.
func (d *MemDisk) Close() error { return nil }
