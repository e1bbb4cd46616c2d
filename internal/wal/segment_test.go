package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openSeg opens a file-backed log in dir, failing the test on error.
func openSeg(t *testing.T, dir string, opts SegmentOptions) *Log {
	t.Helper()
	l, err := OpenSegmentedLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenSegmentedLog: %v", err)
	}
	return l
}

// collect reads back every record with its LSN.
func collect(t *testing.T, l *Log) map[LSN]Record {
	t.Helper()
	out := map[LSN]Record{}
	if err := l.Iterate(1, func(lsn LSN, r Record) error {
		out[lsn] = r
		return nil
	}); err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	return out
}

// segFiles lists the segment files currently in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSegmentRotationStress forces many small records through a tiny
// segment budget, then reopens the directory and checks every record
// survived in order across the rotations.
func TestSegmentRotationStress(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{SegmentBytes: 512}
	l := openSeg(t, dir, opts)

	var lsns []LSN
	for i := 0; i < 200; i++ {
		lsns = append(lsns, l.Append(TxnCommit{Txn: uint64(i + 1)}))
		if i%7 == 0 {
			if err := l.Flush(); err != nil {
				t.Fatalf("Flush at %d: %v", i, err)
			}
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	created, deleted, live := l.SegmentCounts()
	if created < 5 {
		t.Errorf("segments created = %d, want several with a 512-byte budget", created)
	}
	if deleted != 0 || live != created {
		t.Errorf("segments deleted/live = %d/%d, want 0/%d", deleted, live, created)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openSeg(t, dir, opts)
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(lsns) {
		t.Fatalf("recovered %d records, want %d", len(got), len(lsns))
	}
	for i, lsn := range lsns {
		r, ok := got[lsn]
		if !ok {
			t.Fatalf("record %d (LSN %d) missing after reopen", i, lsn)
		}
		if c, ok := r.(TxnCommit); !ok || c.Txn != uint64(i+1) {
			t.Fatalf("LSN %d decoded as %#v, want TxnCommit{%d}", lsn, r, i+1)
		}
	}
}

// TestSegmentFragmentedRecord round-trips a logical record much larger
// than the fragment budget: it must be written as a first/middle/last
// chain and reassemble identically on recovery.
func TestSegmentFragmentedRecord(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{FragmentBytes: 64}
	l := openSeg(t, dir, opts)

	big := bytes.Repeat([]byte("0123456789abcdef"), 40) // 640 bytes > 10 fragments
	lsn := l.Append(Update{Txn: 1, Page: 7, Op: OpInsert, Key: []byte("k"), NewVal: big})
	small := l.Append(TxnCommit{Txn: 1})
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openSeg(t, dir, opts)
	defer l2.Close()
	got := collect(t, l2)
	u, ok := got[lsn].(Update)
	if !ok {
		t.Fatalf("LSN %d decoded as %#v, want Update", lsn, got[lsn])
	}
	if !bytes.Equal(u.NewVal, big) {
		t.Fatalf("fragmented record payload corrupted on round-trip")
	}
	if _, ok := got[small].(TxnCommit); !ok {
		t.Fatalf("record after fragment chain missing")
	}
}

// TestSegmentRetention drops fully-covered old segments on
// TruncateBelow and keeps every surviving LSN readable.
func TestSegmentRetention(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{SegmentBytes: 256}
	l := openSeg(t, dir, opts)
	defer l.Close()
	var lsns []LSN
	for i := 0; i < 60; i++ {
		lsns = append(lsns, l.Append(TxnCommit{Txn: uint64(i + 1)}))
		if err := l.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	created, _, liveBefore := l.SegmentCounts()
	if created < 3 {
		t.Fatalf("segments created = %d, want at least 3", created)
	}
	horizon := lsns[40]
	if _, err := l.TruncateBelow(horizon); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	_, deleted, liveAfter := l.SegmentCounts()
	if deleted == 0 || liveAfter >= liveBefore {
		t.Fatalf("retention deleted %d segments (live %d -> %d), want progress", deleted, liveBefore, liveAfter)
	}
	if got := int64(len(segFiles(t, dir))); got != liveAfter {
		t.Errorf("on-disk segments = %d, live count = %d", got, liveAfter)
	}
	// Everything at or above the horizon is still readable.
	if _, _, err := l.Read(horizon); err != nil {
		t.Fatalf("Read(horizon): %v", err)
	}
	for _, lsn := range lsns[40:] {
		if _, _, err := l.Read(lsn); err != nil {
			t.Fatalf("Read(%d) after retention: %v", lsn, err)
		}
	}
	// A reopen across retention recovers only the retained suffix and
	// new appends continue from the old tail.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := openSeg(t, dir, opts)
	defer l2.Close()
	if _, _, err := l2.Read(lsns[41]); err != nil {
		t.Fatalf("Read after reopen across retention: %v", err)
	}
	tail := l2.Tail()
	if next := l2.Append(TxnCommit{Txn: 999}); next != tail {
		t.Fatalf("append after retention reopen: LSN %d, want %d", next, tail)
	}
	if err := l2.Flush(); err != nil {
		t.Fatalf("Flush after retention reopen: %v", err)
	}
}

// TestSegmentCrashRecoveryAcrossRotation crashes the log (simulated
// restart: full directory re-scan) after appends spanning several
// rotations; the durable prefix must survive byte-for-byte and the
// unflushed tail must vanish.
func TestSegmentCrashRecoveryAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{SegmentBytes: 256}
	l := openSeg(t, dir, opts)
	defer l.Close()
	var durable []LSN
	for i := 0; i < 40; i++ {
		durable = append(durable, l.Append(TxnCommit{Txn: uint64(i + 1)}))
		if err := l.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	lost := l.Append(TxnCommit{Txn: 1000}) // never flushed
	l.Crash()
	got := collect(t, l)
	if len(got) != len(durable) {
		t.Fatalf("recovered %d records after crash, want %d", len(got), len(durable))
	}
	if _, ok := got[lost]; ok {
		t.Fatalf("unflushed record at LSN %d survived the crash", lost)
	}
	// The log keeps working after the crash restart.
	again := l.Append(TxnCommit{Txn: 2000})
	if err := l.FlushTo(again); err != nil {
		t.Fatalf("FlushTo after crash: %v", err)
	}
	if r, _, err := l.Read(again); err != nil {
		t.Fatalf("Read after crash: %v", err)
	} else if c, ok := r.(TxnCommit); !ok || c.Txn != 2000 {
		t.Fatalf("post-crash record = %#v", r)
	}
}

// TestSegmentCrashWithCorruptionSurfacesError deliberately corrupts the
// directory mid-stream and then crashes: the re-scan fails, and the
// failure must surface as ErrWALCorrupt from the next read, never a
// panic or silent empty log.
func TestSegmentCrashWithCorruptionSurfacesError(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	defer l.Close()
	l.Append(TxnCommit{Txn: 1})
	for i := 0; i < 10; i++ {
		l.Append(TxnCommit{Txn: uint64(i + 2)})
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	names := segFiles(t, dir)
	path := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+recFrameSize] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if err := l.Iterate(1, func(LSN, Record) error { return nil }); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Iterate after corrupt crash-scan = %v, want ErrWALCorrupt", err)
	}
}
