package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// ErrWALCorrupt reports log damage recovery cannot classify as a torn
// tail: a record frame in the middle of the stream (more log follows
// it) whose CRC, length, or fragment sequencing is wrong. A torn tail
// is silently truncated — that is what a crash mid-force legitimately
// leaves behind — but mid-stream corruption means stable storage lied,
// and replaying past it could apply garbage, so recovery refuses.
var ErrWALCorrupt = errors.New("wal: corrupt log record (mid-stream)")

// VersionError refuses a segment written in a log format this build
// does not read (an older build's log must be recovered by that build).
type VersionError struct {
	Segment string // file name of the refused segment
	Version uint32 // format version its header names
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wal: scan %s: segment version %d unsupported (this build reads %d)",
		e.Segment, e.Version, segVersion)
}

// castagnoli is the CRC32C table for WAL record frames (same
// polynomial as the page-frame checksums in internal/storage).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// On-disk segment layout. A segment file is named
// <created-unixnano>-<seq>.wal (zero-padded, so lexical order is
// creation order) and starts with a 32-byte header:
//
//	off  size  field
//	  0     8  magic "RBTWSEG1"
//	  8     4  format version (little-endian, currently 5: records are
//	           varint- and front-coded, a transaction has no begin
//	           record and a split logs no cells, see Encode; older
//	           versions are refused with a *VersionError)
//	 12     4  reserved (zero)
//	 16     8  firstLSN — LSN of the first record in this segment
//	 24     8  creation time (unix nanoseconds)
//
// followed by record frames:
//
//	off  size  field
//	  0     4  CRC32C over [type, payload]
//	  4     4  payload length
//	  8     1  type (full / first / middle / last)
//	  9     n  payload
//
// A logical record larger than FragmentBytes is split into a
// first/middle.../last fragment chain; the chain never spans a
// rotation (rotation happens only between logical records), so
// reassembly is purely sequential within one segment.
//
// A segment is created zero-filled to SegmentBytes, so a force
// overwrites blocks the file system has already allocated instead of
// growing the file — the fsync then has no size or extent metadata to
// journal. The log in a segment therefore ends not at EOF but at the
// first frame header that is all zero (no frame has one: its type byte
// is never 0), with nothing but zeros after it. A segment written
// before preallocation simply ends at EOF; both open.
const (
	segHeaderSize = 32
	recFrameSize  = 9
	segMagic      = "RBTWSEG1"
	segVersion    = 5
	segSuffix     = ".wal"

	recFull   = 1
	recFirst  = 2
	recMiddle = 3
	recLast   = 4
)

// DefaultSegmentBytes is the rotation threshold, and the size a new
// segment is preallocated to: a segment that has grown to it is closed
// and a new one opened before the next record.
const DefaultSegmentBytes = 1 << 20

// DefaultFragmentBytes caps a single frame's payload; larger logical
// records are written as fragment chains (KevoDB uses the same 32 KiB
// block discipline).
const DefaultFragmentBytes = 32 << 10

// SegmentOptions configures the file-backed log device.
type SegmentOptions struct {
	// SegmentBytes is the rotation threshold and preallocated segment
	// size (DefaultSegmentBytes if 0).
	SegmentBytes int64
	// FragmentBytes caps one frame's payload (DefaultFragmentBytes if 0).
	FragmentBytes int
}

// segmentInfo is the in-memory index entry for one on-disk segment.
type segmentInfo struct {
	name     string
	firstLSN uint64
	created  int64
}

// SegmentedLog is the file device behind a Log: timestamped segment
// files with per-record CRC frames, preallocation, size-based rotation,
// torn-tail repair on recovery, and retention. It has no locking of its
// own; the owning Log keeps these rules:
//
//   - write (frame the records, one page-cache write) runs under the
//     Log's mutex and only while the device is not owned (Log.busy);
//   - sync runs with the mutex released, on a file handle read under
//     the mutex, any number at a time;
//   - rotate, retain and close run with the device owned — no write can
//     start and no sync is in flight — and, except close, with the
//     mutex released;
//   - the counters are atomics, readable at any time.
type SegmentedLog struct {
	dir       string
	segBytes  int64
	fragBytes int

	segments []segmentInfo // oldest first; last entry is the open segment
	cur      *os.File
	curSize  int64 // offset in cur of the next frame
	seq      uint64
	frames   []byte // write's framing buffer, reused from force to force

	opened          int64 // segments found when the directory was opened
	fsyncs          atomic.Int64
	segmentsCreated atomic.Int64
	segmentsDeleted atomic.Int64
}

// maxFrameBuf bounds the framing buffer kept between forces; one bulk
// force must not pin megabytes for the life of the log.
const maxFrameBuf = 256 << 10

// zeroes is the shared source of zero bytes for preallocating segments
// and blanking torn tails; it is never written to.
var zeroes [64 << 10]byte

// zeroRange overwrites f's bytes [from, to) with zeros.
func zeroRange(f *os.File, from, to int64) error {
	for from < to {
		n := min(to-from, int64(len(zeroes)))
		if _, err := f.WriteAt(zeroes[:n], from); err != nil {
			return err
		}
		from += n
	}
	return nil
}

func (s *SegmentedLog) segPath(name string) string { return filepath.Join(s.dir, name) }

// counts returns segments created, deleted and currently live.
func (s *SegmentedLog) counts() (created, deleted, live int64) {
	created, deleted = s.segmentsCreated.Load(), s.segmentsDeleted.Load()
	return created, deleted, s.opened + created - deleted
}

// syncDir fsyncs the segment directory so a just-created or
// just-deleted name survives a crash.
func (s *SegmentedLog) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// createSegment opens a fresh segment whose first record will carry
// firstLSN, zero-fills it to the segment size, makes it the current
// segment (closing the one before) and syncs the directory.
func (s *SegmentedLog) createSegment(firstLSN uint64) error {
	s.seq++
	created := time.Now().UnixNano()
	name := fmt.Sprintf("%020d-%08d%s", created, s.seq, segSuffix)
	f, err := os.OpenFile(s.segPath(name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:], firstLSN)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(created))
	_, err = f.WriteAt(hdr[:], 0)
	if err == nil {
		err = zeroRange(f, segHeaderSize, s.segBytes)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: create segment: %w", err)
	}
	s.fsyncs.Add(1)
	if err := s.syncDir(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment dir: %w", err)
	}
	if s.cur != nil {
		if err := s.cur.Close(); err != nil {
			f.Close()
			return fmt.Errorf("wal: close rotated segment: %w", err)
		}
	}
	s.cur = f
	s.curSize = segHeaderSize
	s.segments = append(s.segments, segmentInfo{name: name, firstLSN: firstLSN, created: created})
	s.segmentsCreated.Add(1)
	return nil
}

// frame encodes one record frame (type + payload) into dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [recFrameSize]byte
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	hdr[8] = typ
	crc := crc32.Checksum(hdr[8:9], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[:4], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameRecord encodes one logical record payload as a frame chain,
// fragmenting at fragBytes.
func (s *SegmentedLog) frameRecord(dst, payload []byte) []byte {
	if len(payload) <= s.fragBytes {
		return appendFrame(dst, recFull, payload)
	}
	first := true
	for len(payload) > s.fragBytes {
		typ := byte(recMiddle)
		if first {
			typ = recFirst
			first = false
		}
		dst = appendFrame(dst, typ, payload[:s.fragBytes])
		payload = payload[s.fragBytes:]
	}
	return appendFrame(dst, recLast, payload)
}

// write frames records — complete in-memory records ([len u32][payload])
// back to back — into the current segment with one page-cache write and
// returns how many of their bytes it consumed. It stops short when the
// segment reaches its size: rotation happens between logical records,
// and the caller rotates before writing the rest. Nothing is durable
// until a sync.
func (s *SegmentedLog) write(recs []byte) (int, error) {
	pending := s.frames[:0]
	off := 0
	for off < len(recs) && s.curSize+int64(len(pending)) < s.segBytes {
		n := int(binary.LittleEndian.Uint32(recs[off:]))
		pending = s.frameRecord(pending, recs[off+4:off+4+n])
		off += 4 + n
	}
	if cap(pending) <= maxFrameBuf {
		s.frames = pending[:0]
	}
	if len(pending) == 0 {
		return 0, nil
	}
	n, err := s.cur.WriteAt(pending, s.curSize)
	if err != nil {
		return 0, fmt.Errorf("wal: segment write: %w", err)
	}
	if n < len(pending) {
		return 0, fmt.Errorf("wal: segment write: %d of %d bytes: short write", n, len(pending))
	}
	s.curSize += int64(n)
	return off, nil
}

// full reports whether the current segment has reached its size, so
// the next record belongs in a new one.
func (s *SegmentedLog) full() bool { return s.curSize >= s.segBytes }

// rotate makes everything written to the current segment durable and
// replaces it with a fresh segment whose first record will carry
// firstLSN.
func (s *SegmentedLog) rotate(firstLSN uint64) error {
	if err := s.sync(s.cur); err != nil {
		return err
	}
	return s.createSegment(firstLSN)
}

// sync fsyncs segment file f.
func (s *SegmentedLog) sync(f *os.File) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: segment sync: %w", err)
	}
	s.fsyncs.Add(1)
	return nil
}

// tearSegment models a crash in the middle of a forced write: of the
// bytes the force put into f, those in [from, to) never reached the
// media (ragged — from can fall mid-frame or mid-fragment-chain), and
// the loss is synced so it genuinely survives. The caller panics with
// the crash fault right after; recovery's scan classifies the ragged
// edge as a torn tail and blanks it.
func tearSegment(f *os.File, from, to int64) {
	if zeroRange(f, from, to) == nil {
		_ = f.Sync()
	}
}

// retain deletes every segment whose entire contents lie strictly
// below horizon (every record in segment i is below segment i+1's
// firstLSN), oldest first, passing the wal.truncate fault point before
// each. The current segment is never deleted. It returns the firstLSN
// of the oldest retained segment — the new retained base — and how many
// segments it deleted. A failure stops the deletions where it happened;
// the segments already gone leave the index all the same, so a retry
// starts from the oldest that is still on disk.
func (s *SegmentedLog) retain(horizon uint64, inj *fault.Injector) (newBase uint64, deleted int, err error) {
	drop := 0
	for drop < len(s.segments)-1 && s.segments[drop+1].firstLSN <= horizon {
		drop++
	}
	for deleted < drop {
		if err = inj.Hit(fault.WALTruncate); err != nil {
			break
		}
		if err = os.Remove(s.segPath(s.segments[deleted].name)); err != nil {
			break
		}
		s.segmentsDeleted.Add(1)
		deleted++
	}
	if deleted > 0 {
		s.segments = append([]segmentInfo(nil), s.segments[deleted:]...)
		if serr := s.syncDir(); err == nil {
			err = serr
		}
	}
	if err != nil {
		err = fmt.Errorf("wal: retention: %w", err)
	}
	return s.segments[0].firstLSN, deleted, err
}

// close releases the current segment handle (idempotent).
func (s *SegmentedLog) close() error {
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	if err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return nil
}

// listSegments returns the directory's segment files in name
// (= creation) order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// scanResult is what recovering one segment yields.
type scanResult struct {
	records  [][]byte // reassembled logical record payloads
	goodSize int64    // file offset just past the last good frame
	dataEnd  int64    // file offset just past the last non-zero byte
	torn     bool     // a ragged tail was found (only legal in the last segment)
}

// scanSegment reads one segment's frames, reassembling fragment
// chains. last says whether this is the newest segment: only there may
// a bad tail be classified as a torn write.
//
// The data of a segment ends at its last non-zero byte: past it lie
// the zeros of preallocation, or EOF. A frame whose last byte is zero
// may reach beyond that point and is still whole — a frame stands or
// falls by its CRC. The classification rule: a frame that runs past
// EOF, or a bad-CRC frame with no data after it, or an unfinished
// fragment chain at the end of the data is a torn tail (blank it); a
// bad-CRC frame with data after it — or any damage in a non-final
// segment — is ErrWALCorrupt.
func scanSegment(path string, last bool) (segmentInfo, scanResult, error) {
	var info segmentInfo
	var res scanResult
	data, err := os.ReadFile(path)
	if err != nil {
		return info, res, fmt.Errorf("wal: scan %s: %w", filepath.Base(path), err)
	}
	if len(data) < segHeaderSize || string(data[:8]) != segMagic {
		return info, res, fmt.Errorf("wal: scan %s: bad segment header: %w", filepath.Base(path), ErrWALCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != segVersion {
		return info, res, &VersionError{Segment: filepath.Base(path), Version: v}
	}
	info.name = filepath.Base(path)
	info.firstLSN = binary.LittleEndian.Uint64(data[16:])
	info.created = int64(binary.LittleEndian.Uint64(data[24:]))

	// fragStart is the file offset of the first frame of the fragment
	// chain being reassembled; a torn chain truncates back to it.
	off := int64(segHeaderSize)
	fragStart := int64(-1)
	var frag []byte
	res.goodSize = off
	res.dataEnd = max(off, int64(len(bytes.TrimRight(data, "\x00"))))

	tornAt := func(at int64) (segmentInfo, scanResult, error) {
		if !last {
			return info, res, fmt.Errorf("wal: scan %s: damaged record at offset %d in non-final segment: %w",
				info.name, at, ErrWALCorrupt)
		}
		res.torn = true
		return info, res, nil
	}

	for off < res.dataEnd {
		if off+recFrameSize > int64(len(data)) {
			return tornAt(off)
		}
		wantCRC := binary.LittleEndian.Uint32(data[off:])
		n := int64(binary.LittleEndian.Uint32(data[off+4:]))
		typ := data[off+8]
		end := off + recFrameSize + n
		if end > int64(len(data)) {
			return tornAt(off)
		}
		crc := crc32.Checksum(data[off+8:off+9], castagnoli)
		crc = crc32.Update(crc, castagnoli, data[off+recFrameSize:end])
		if crc != wantCRC {
			if last && end >= res.dataEnd {
				// Bad CRC and nothing but zeros behind the frame: the write
				// that was in flight at the tail of the newest segment.
				return tornAt(off)
			}
			return info, res, fmt.Errorf("wal: scan %s: frame CRC %08x != %08x at offset %d: %w",
				info.name, wantCRC, crc, off, ErrWALCorrupt)
		}
		payload := data[off+recFrameSize : end]
		switch typ {
		case recFull:
			if fragStart >= 0 {
				return info, res, fmt.Errorf("wal: scan %s: full frame inside fragment chain at offset %d: %w",
					info.name, off, ErrWALCorrupt)
			}
			res.records = append(res.records, append([]byte(nil), payload...))
		case recFirst:
			if fragStart >= 0 {
				return info, res, fmt.Errorf("wal: scan %s: nested fragment chain at offset %d: %w",
					info.name, off, ErrWALCorrupt)
			}
			fragStart = off
			frag = append([]byte(nil), payload...)
		case recMiddle, recLast:
			if fragStart < 0 {
				return info, res, fmt.Errorf("wal: scan %s: orphan fragment at offset %d: %w",
					info.name, off, ErrWALCorrupt)
			}
			frag = append(frag, payload...)
			if typ == recLast {
				res.records = append(res.records, frag)
				fragStart = -1
				frag = nil
			}
		default:
			return info, res, fmt.Errorf("wal: scan %s: unknown frame type %d at offset %d: %w",
				info.name, typ, off, ErrWALCorrupt)
		}
		off = end
		if fragStart < 0 {
			res.goodSize = off
		}
	}
	if fragStart >= 0 {
		// Unfinished fragment chain at the end of the data: a force died
		// between fragments. Cut back to the chain's first frame.
		return tornAt(fragStart)
	}
	return info, res, nil
}

// recoverDir scans dir's segments in creation order, blanking a torn
// tail in the newest segment and rebuilding the in-memory record
// stream. It returns the device (with the newest segment reopened for
// appending), the stream's base (LSN of the first retained byte minus
// one), and the retained stream.
func recoverDir(dir string, opts SegmentOptions) (*SegmentedLog, uint64, stream, error) {
	s := &SegmentedLog{
		dir:       dir,
		segBytes:  opts.SegmentBytes,
		fragBytes: opts.FragmentBytes,
	}
	if s.segBytes <= segHeaderSize {
		s.segBytes = DefaultSegmentBytes
	}
	if s.fragBytes <= 0 {
		s.fragBytes = DefaultFragmentBytes
	}
	names, err := listSegments(dir)
	if err != nil {
		return nil, 0, stream{}, fmt.Errorf("wal: list segments: %w", err)
	}
	if len(names) == 0 {
		if err := s.createSegment(1); err != nil {
			return nil, 0, stream{}, err
		}
		return s, 0, stream{}, nil
	}
	s.opened = int64(len(names))

	var (
		base uint64
		recs stream
	)
	for i, name := range names {
		info, res, err := scanSegment(filepath.Join(dir, name), i == len(names)-1)
		if err != nil {
			return nil, 0, stream{}, err
		}
		// seq continues past every name ever used so a new segment's name
		// sorts after all existing ones.
		var ts uint64
		var seq uint64
		if _, serr := fmt.Sscanf(name, "%d-%d.wal", &ts, &seq); serr == nil && seq > s.seq {
			s.seq = seq
		}
		if i == 0 {
			base = info.firstLSN - 1
			recs.end = base
		} else if want := recs.end + 1; info.firstLSN != want {
			return nil, 0, stream{}, fmt.Errorf("wal: segment %s firstLSN %d != expected %d (gap or overlap): %w",
				name, info.firstLSN, want, ErrWALCorrupt)
		}
		for _, payload := range res.records {
			recs.append(payload)
		}
		s.segments = append(s.segments, info)
		if i == len(names)-1 {
			f, ferr := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
			if ferr != nil {
				return nil, 0, stream{}, fmt.Errorf("wal: reopen segment: %w", ferr)
			}
			if res.torn {
				// Blank the ragged tail so later appends never interleave
				// with garbage, and make the blanking durable before any of
				// them: the file keeps its allocated size.
				terr := zeroRange(f, res.goodSize, res.dataEnd)
				if terr == nil {
					terr = f.Sync()
				}
				if terr != nil {
					f.Close()
					return nil, 0, stream{}, fmt.Errorf("wal: blank torn tail: %w", terr)
				}
				s.fsyncs.Add(1)
			}
			s.cur = f
			s.curSize = res.goodSize
		}
	}
	return s, base, recs, nil
}
