package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/fault"
)

// ErrCorruptPage reports a stable page image whose integrity check
// failed: the frame checksum does not cover the bytes on media (torn
// write, bit rot) or the self-identifying fields disagree with the
// slot the page was read from. It is always wrapped with the page id;
// match with errors.Is.
var ErrCorruptPage = errors.New("storage: corrupt page (checksum mismatch)")

// ErrShortWrite reports a write the operating system accepted but did
// not complete; the storage layer treats it as a hard fault, never as
// silently-partial data.
var ErrShortWrite = errors.New("storage: short write")

// castagnoli is the CRC32C table used for every on-media checksum
// (page frames here, WAL record frames in internal/wal).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File-backed page-file layout. One file holds every page:
//
//	off  size  field
//	  0     8  magic "RBTPAGE1"
//	  8     4  format version (little-endian, currently 1)
//	 12     4  page size in bytes
//	 16    16  reserved (zero)
//
// followed by fixed-size page slots. Slot i (page id i) lives at
// fileHeaderSize + i*(pageFrameSize+pageSize) and carries a frame
// header in front of the page image:
//
//	off  size  field
//	  0     4  CRC32C over [pageID, pageLSN echo, page image]
//	  4     4  pageID echo (self-identifying; must equal the slot)
//	  8     8  pageLSN echo (must equal the image's header LSN)
//
// An all-zero slot (or a slot past EOF) is a page that was never
// written and reads as a zeroed PageFree image — exactly MemDisk's
// semantics for unwritten pages. Any other frame whose CRC or echoes
// disagree with the payload is a torn or rotted page and surfaces
// ErrCorruptPage; detection is the read path's job, repair is redo's.
const (
	fileHeaderSize = 32
	pageFrameSize  = 16
	pageFileMagic  = "RBTPAGE1"
	pageFileVer    = 1
)

// FileDisk is the file-backed Disk: one page file, checksummed page
// frames, torn-page detection on read, and real fsync in Sync. Crash
// semantics match MemDisk at the level the harness simulates: Write
// makes an image stable (the file is shared with any restarted
// instance), and the fault injector's torn-write schedule models the
// half-written sector run a power failure leaves behind.
type FileDisk struct {
	pageSize int
	slotSize int64

	mu       sync.Mutex
	f        *os.File
	path     string
	extent   PageID // one past the highest slot ever written
	lastRead PageID
	closed   bool
	inj      *fault.Injector

	stats IOStats
}

// OpenFileDisk opens (creating if absent) the page file at path. An
// existing file must carry a matching header: the page size is part of
// the format, not an open-time choice.
func OpenFileDisk(path string, pageSize int) (*FileDisk, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("storage: page size %d below minimum %d", pageSize, MinPageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	d := &FileDisk{
		pageSize: pageSize,
		slotSize: int64(pageFrameSize + pageSize),
		f:        f,
		path:     path,
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat page file: %w", err)
	}
	if st.Size() == 0 {
		hdr := make([]byte, fileHeaderSize)
		copy(hdr, pageFileMagic)
		binary.LittleEndian.PutUint32(hdr[8:], pageFileVer)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(pageSize))
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: format page file: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: format page file: %w", err)
		}
		d.extent = 1 // page 0 reserved
		return d, nil
	}
	hdr := make([]byte, fileHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, fileHeaderSize), hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: page file header: %w", err)
	}
	if string(hdr[:8]) != pageFileMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a page file (bad magic): %w", path, ErrCorruptPage)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != pageFileVer {
		f.Close()
		return nil, fmt.Errorf("storage: page file version %d unsupported", v)
	}
	if ps := int(binary.LittleEndian.Uint32(hdr[12:])); ps != pageSize {
		f.Close()
		return nil, fmt.Errorf("storage: page file has page size %d, want %d", ps, pageSize)
	}
	d.extent = PageID((st.Size() - fileHeaderSize + d.slotSize - 1) / d.slotSize)
	if d.extent < 1 {
		d.extent = 1
	}
	return d, nil
}

// Path returns the page file's path.
func (d *FileDisk) Path() string { return d.path }

// PageSize returns the disk's page size in bytes.
func (d *FileDisk) PageSize() int { return d.pageSize }

// SetInjector installs the fault injector consulted at the disk.read
// and disk.write fault points (nil disables injection).
func (d *FileDisk) SetInjector(in *fault.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = in
}

// Stats exposes the I/O counters.
func (d *FileDisk) Stats() *IOStats { return &d.stats }

// NumPages returns the current extent in pages, including the reserved
// page 0.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.extent)
}

func (d *FileDisk) slotOff(id PageID) int64 {
	return fileHeaderSize + int64(id)*d.slotSize
}

// frameCRC computes the frame checksum over the self-identifying
// fields and the page image (everything in the slot after the CRC).
func frameCRC(frame []byte) uint32 {
	return crc32.Checksum(frame[4:], castagnoli)
}

// Read copies the stable image of page id into buf, verifying the
// frame checksum. A slot never written (all zero, or past EOF) yields
// a zeroed PageFree image; any other mismatch is ErrCorruptPage.
func (d *FileDisk) Read(id PageID, buf []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("storage: read of invalid page")
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read buffer size %d != page size %d", len(buf), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("storage: read page %d: %w", id, os.ErrClosed)
	}
	//vet:allow(nolockio) -- d.mu is the device's own serialization; the fault point models the device itself
	if err := d.inj.Hit(fault.DiskRead); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	d.stats.Reads.Add(1)
	if id != d.lastRead+1 {
		d.stats.Seeks.Add(1)
	}
	d.lastRead = id

	frame := make([]byte, d.slotSize)
	n, err := d.f.ReadAt(frame, d.slotOff(id))
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	d.stats.BytesRead.Add(int64(n))
	if n == 0 || allZero(frame[:n]) {
		// Never written (sparse hole, short file, or zero slot): a
		// zeroed image, same as MemDisk.
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	if n < int(d.slotSize) {
		return fmt.Errorf("storage: read page %d: slot truncated at %d of %d bytes: %w",
			id, n, d.slotSize, ErrCorruptPage)
	}
	if got, want := binary.LittleEndian.Uint32(frame[:4]), frameCRC(frame); got != want {
		return fmt.Errorf("storage: read page %d: frame CRC %08x != %08x: %w",
			id, got, want, ErrCorruptPage)
	}
	if echo := PageID(binary.LittleEndian.Uint32(frame[4:8])); echo != id {
		return fmt.Errorf("storage: read page %d: frame identifies as page %d: %w",
			id, echo, ErrCorruptPage)
	}
	img := frame[pageFrameSize:]
	if echo := binary.LittleEndian.Uint64(frame[8:16]); echo != Page(img).LSN() {
		return fmt.Errorf("storage: read page %d: frame LSN echo %d != page LSN %d: %w",
			id, echo, Page(img).LSN(), ErrCorruptPage)
	}
	copy(buf, img)
	return nil
}

// Write makes the page image stable: the slot's frame (CRC, id echo,
// LSN echo) plus the image reach the file in one positioned write.
func (d *FileDisk) Write(id PageID, data []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("storage: write of invalid page")
	}
	if len(data) != d.pageSize {
		return fmt.Errorf("storage: write buffer size %d != page size %d", len(data), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("storage: write page %d: %w", id, os.ErrClosed)
	}
	frame := d.buildFrame(id, data)
	// disk.write is tear-capable: a torn crash leaves only the first
	// half of the slot on media — the read path's CRC check is what
	// turns that into a detected ErrCorruptPage instead of bad data.
	//vet:allow(nolockio) -- d.mu is the device's own serialization; the fault point models the device itself
	if err := d.inj.HitTorn(fault.DiskWrite, func() {
		half := frame[:len(frame)/2]
		if _, werr := d.f.WriteAt(half, d.slotOff(id)); werr == nil {
			_ = d.f.Sync()
		}
	}); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	n, err := d.f.WriteAt(frame, d.slotOff(id))
	if err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	if n < len(frame) {
		return fmt.Errorf("storage: write page %d: %d of %d bytes: %w",
			id, n, len(frame), ErrShortWrite)
	}
	d.stats.Writes.Add(1)
	d.stats.BytesWritten.Add(int64(n))
	if id >= d.extent {
		d.extent = id + 1
	}
	return nil
}

// buildFrame assembles the framed slot image for id.
func (d *FileDisk) buildFrame(id PageID, data []byte) []byte {
	frame := make([]byte, d.slotSize)
	binary.LittleEndian.PutUint32(frame[4:], uint32(id))
	binary.LittleEndian.PutUint64(frame[8:], Page(data).LSN())
	copy(frame[pageFrameSize:], data)
	binary.LittleEndian.PutUint32(frame[:4], frameCRC(frame))
	return frame
}

// MarkFree stamps the stable image of id as a free page without
// charging data I/O (the byte counters still see the media traffic).
// The free image carries lsn (or the slot's own LSN, if higher) so redo
// can order deallocation against later reuse of the page.
func (d *FileDisk) MarkFree(id PageID, lsn uint64) {
	if id == InvalidPage {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	lsn = max(lsn, d.stableLSNLocked(id))
	img := make([]byte, d.pageSize)
	FormatPage(img, PageFree, id)
	Page(img).SetLSN(lsn)
	frame := d.buildFrame(id, img)
	if n, err := d.f.WriteAt(frame, d.slotOff(id)); err == nil {
		d.stats.BytesWritten.Add(int64(n))
	}
	if id >= d.extent {
		d.extent = id + 1
	}
}

// StableLSN returns the pageLSN of id's slot without charging I/O: 0
// for a slot never written, or one that fails its CRC or id check (a
// torn slot carries no LSN redo could trust).
func (d *FileDisk) StableLSN(id PageID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0
	}
	return d.stableLSNLocked(id)
}

func (d *FileDisk) stableLSNLocked(id PageID) uint64 {
	if id == InvalidPage || id >= d.extent {
		return 0
	}
	frame := make([]byte, d.slotSize)
	n, err := d.f.ReadAt(frame, d.slotOff(id))
	if (err != nil && !errors.Is(err, io.EOF)) || n < int(d.slotSize) ||
		binary.LittleEndian.Uint32(frame[:4]) != frameCRC(frame) ||
		PageID(binary.LittleEndian.Uint32(frame[4:8])) != id {
		return 0
	}
	return binary.LittleEndian.Uint64(frame[8:16])
}

// ScanTypes reads the header type of every page without charging I/O;
// it is used to rebuild the free map at restart. Unreadable or corrupt
// slots scan as their header type anyway — restart's redo owns repair,
// the scan only rebuilds allocation state.
func (d *FileDisk) ScanTypes() []PageType {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PageType, d.extent)
	if d.closed {
		return out
	}
	frame := make([]byte, d.slotSize)
	for id := PageID(1); id < d.extent; id++ {
		n, err := d.f.ReadAt(frame, d.slotOff(id))
		if (err != nil && !errors.Is(err, io.EOF)) || n < pageFrameSize+2 || allZero(frame[:n]) {
			out[id] = PageFree
			continue
		}
		out[id] = Page(frame[pageFrameSize:]).Type()
	}
	return out
}

// Sync forces every stable image to media.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync page file: %w", err)
	}
	d.stats.Fsyncs.Add(1)
	return nil
}

// Close releases the file handle. Idempotent: a second Close is a
// no-op, so shutdown paths can close unconditionally.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("storage: close page file: %w", err)
	}
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
