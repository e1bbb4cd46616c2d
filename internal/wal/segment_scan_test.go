package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scanFixture is a closed single-segment log: three small records from
// one force, then — from a second force, the "forced tail" — a small
// record, a record long enough to be a four-frame fragment chain, and
// another small one.
type scanFixture struct {
	opts    SegmentOptions
	raw     []byte  // the segment file
	name    string  // its file name
	lsns    []LSN   // LSN of every record, in order
	ends    []int64 // file offset just past each record's last frame
	tailAt  int64   // file offset where the forced tail begins
	dataEnd int64   // file offset just past the last frame
}

// blank reports whether b holds nothing but zeros.
func blank(b []byte) bool { return len(bytes.TrimRight(b, "\x00")) == 0 }

func buildScanFixture(t *testing.T) scanFixture {
	t.Helper()
	fx := scanFixture{opts: SegmentOptions{SegmentBytes: 4096, FragmentBytes: 48}}
	dir := t.TempDir()
	l := openSeg(t, dir, fx.opts)
	add := func(r Record) {
		fx.lsns = append(fx.lsns, l.Append(r))
		// One force per record, only to learn where its frames end; the
		// bytes on disk do not depend on how the forces were cut.
		if err := l.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		fx.ends = append(fx.ends, l.seg.curSize)
	}
	for i := 0; i < 3; i++ {
		add(TxnCommit{Txn: uint64(i + 1)})
	}
	fx.tailAt = l.seg.curSize
	add(TxnCommit{Txn: 7})
	add(Update{Txn: 7, Page: 3, Op: OpInsert, Key: []byte("key"), NewVal: bytes.Repeat([]byte{0xAB}, 150)})
	add(TxnCommit{Txn: 7})
	fx.dataEnd = l.seg.curSize
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fx.name = segFiles(t, dir)[0]
	raw, err := os.ReadFile(filepath.Join(dir, fx.name))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != fx.opts.SegmentBytes {
		t.Fatalf("segment file is %d bytes, want it preallocated to %d", len(raw), fx.opts.SegmentBytes)
	}
	if !blank(raw[fx.dataEnd:]) {
		t.Fatalf("bytes past the last frame are not all zero")
	}
	fx.raw = raw
	return fx
}

// open writes img as the fixture's only segment in a fresh directory
// and opens a log over it.
func (fx scanFixture) open(t *testing.T, img []byte) (*Log, string, error) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, fx.name)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenSegmentedLog(dir, fx.opts)
	return l, path, err
}

// intact says how many of the fixture's records img still holds byte
// for byte, counting from the first.
func (fx scanFixture) intact(img []byte) int {
	n := 0
	for n < len(fx.ends) && int64(len(img)) >= fx.ends[n] && bytes.Equal(img[:fx.ends[n]], fx.raw[:fx.ends[n]]) {
		n++
	}
	return n
}

// checkRecovered asserts l holds exactly the fixture's first n records,
// that the file at path is blank past them without having changed size,
// and that the log takes and keeps a new record.
func (fx scanFixture) checkRecovered(t *testing.T, l *Log, path string, n, size int) {
	t.Helper()
	got := collect(t, l)
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for _, lsn := range fx.lsns[:n] {
		if _, ok := got[lsn]; !ok {
			t.Fatalf("record at LSN %d missing", lsn)
		}
	}
	good := int64(segHeaderSize)
	if n > 0 {
		good = fx.ends[n-1]
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != size {
		t.Fatalf("segment is %d bytes after recovery, was %d", len(img), size)
	}
	if !blank(img[good:]) {
		t.Fatalf("bytes past offset %d are not blank after recovery", good)
	}
	next := l.Append(TxnCommit{Txn: 99})
	if err := l.FlushTo(next); err != nil {
		t.Fatalf("FlushTo after recovery: %v", err)
	}
	l.Crash()
	if _, _, err := l.Read(next); err != nil {
		t.Fatalf("record appended after recovery did not survive a restart: %v", err)
	}
}

// TestScanPreallocatedSegment pins the end-of-log rule on zero-filled
// segments: what is a clean end, what is a torn tail (repaired), what
// is corruption (refused), and that segments of the EOF-terminated
// format still open.
func TestScanPreallocatedSegment(t *testing.T) {
	fx := buildScanFixture(t)
	all := len(fx.lsns)

	t.Run("zero tail is a clean end", func(t *testing.T) {
		l, path, err := fx.open(t, fx.raw)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if n := l.Fsyncs(); n != 0 {
			t.Errorf("opening a clean segment issued %d fsyncs, want 0", n)
		}
		fx.checkRecovered(t, l, path, all, len(fx.raw))
	})

	t.Run("forced tail cut at every byte", func(t *testing.T) {
		for c := fx.tailAt; c <= fx.dataEnd; c++ {
			img := append([]byte(nil), fx.raw...)
			clear(img[c:fx.dataEnd])
			l, path, err := fx.open(t, img)
			if err != nil {
				t.Fatalf("cut at %d: %v", c, err)
			}
			// Zeroing bytes that were zero cuts nothing off, hence intact.
			n := fx.intact(img)
			// The repair must be synced before anything is appended behind
			// it; a cut that left only zeros behind needs none.
			good := fx.ends[n-1]
			if ragged := !blank(img[good:]); ragged != (l.Fsyncs() == 1) {
				t.Errorf("cut at %d: ragged bytes %v, fsyncs at open %d", c, ragged, l.Fsyncs())
			}
			fx.checkRecovered(t, l, path, n, len(fx.raw))
			l.Close()
		}
	})

	t.Run("bad CRC with frames after it is corruption", func(t *testing.T) {
		img := append([]byte(nil), fx.raw...)
		img[fx.tailAt+recFrameSize] ^= 0x40 // first payload byte of the tail's first frame
		if _, _, err := fx.open(t, img); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("open = %v, want ErrWALCorrupt", err)
		}
	})

	t.Run("bad CRC on the last frame is a torn tail", func(t *testing.T) {
		img := append([]byte(nil), fx.raw...)
		img[fx.dataEnd-1] ^= 0xFF
		l, path, err := fx.open(t, img)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		fx.checkRecovered(t, l, path, all-1, len(fx.raw))
	})

	t.Run("data behind a blank header is corruption", func(t *testing.T) {
		img := append([]byte(nil), fx.raw...)
		img[len(img)-1] = 0xFF
		if _, _, err := fx.open(t, img); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("open = %v, want ErrWALCorrupt", err)
		}
	})

	t.Run("EOF-terminated segment opens and appends", func(t *testing.T) {
		img := fx.raw[:fx.dataEnd]
		l, path, err := fx.open(t, img)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		got := collect(t, l)
		if len(got) != all {
			t.Fatalf("recovered %d records, want %d", len(got), all)
		}
		tail := l.Tail()
		if next := l.Append(TxnCommit{Txn: 99}); next != tail {
			t.Fatalf("append after reopen: LSN %d, want %d", next, tail)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		l.Crash()
		if _, _, err := l.Read(tail); err != nil {
			t.Fatalf("record appended to an EOF-terminated segment lost: %v", err)
		}
		if st, err := os.Stat(path); err != nil || st.Size() <= fx.dataEnd {
			t.Fatalf("segment did not grow past %d: %v %v", fx.dataEnd, st, err)
		}
	})

	t.Run("EOF-terminated segment with a torn tail", func(t *testing.T) {
		cut := fx.ends[all-2] + 5 // inside the last record's frame header
		l, path, err := fx.open(t, fx.raw[:cut])
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		fx.checkRecovered(t, l, path, all-1, int(cut))
	})
}

// TestSegmentNonFinalDamageRefuses damages the newest record of an
// older (non-final) segment: even a clean-looking tail there is
// mid-stream corruption, because a later segment exists.
func TestSegmentNonFinalDamageRefuses(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{SegmentBytes: 256}
	l := openSeg(t, dir, opts)
	for i := 0; i < 50; i++ {
		l.Append(TxnCommit{Txn: uint64(i + 1)})
		if err := l.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names := segFiles(t, dir)
	if len(names) < 2 {
		t.Fatalf("segments = %v, want at least 2", names)
	}
	path := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(bytes.TrimRight(raw, "\x00"))-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedLog(dir, opts); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("open over damaged non-final segment = %v, want ErrWALCorrupt", err)
	}
}

// TestSegmentOldVersionRefuses opens directories whose segment says
// format version 2 (fixed-width record fields), 3 (a begin record per
// transaction) or 4 (splits that log their moved cells, which format 5
// would misread): the header check refuses them with a *VersionError
// rather than misread a record.
func TestSegmentOldVersionRefuses(t *testing.T) {
	for _, version := range []uint32{2, 3, 4} {
		dir := t.TempDir()
		l := openSeg(t, dir, SegmentOptions{})
		l.Append(Checkpoint{NextTxnID: 3, RedoLSN: 1})
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		path := filepath.Join(dir, segFiles(t, dir)[0])
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[8:], version)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenSegmentedLog(dir, SegmentOptions{})
		var verr *VersionError
		if !errors.As(err, &verr) || verr.Version != version {
			t.Fatalf("open over a version-%d segment = %v, want a *VersionError", version, err)
		}
		want := fmt.Sprintf("segment version %d unsupported", version)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("open over a version-%d segment = %v, want %q in it", version, err, want)
		}
	}
}
