package wal

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestMemTruncateBelow: the in-memory device moves its base to the
// horizon, refuses reads below it, frees whole chunks under it, keeps
// every record at or above it readable — across a Crash too — and never
// truncates above the durable end.
func TestMemTruncateBelow(t *testing.T) {
	l := NewLog()
	val := make([]byte, 200)
	var lsns []LSN
	for i := 0; i < 3000; i++ { // ~650 KB: several chunks
		lsns = append(lsns, l.Append(Update{Txn: uint64(i), Page: 1, Op: OpInsert, Key: []byte("k"), NewVal: val}))
	}
	chunks := len(l.s.chunks)
	if chunks < 3 {
		t.Fatalf("%d chunks, want several", chunks)
	}
	horizon := lsns[2500]
	if _, err := l.TruncateBelow(horizon); err == nil {
		t.Fatal("truncated above the durable end")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	dropped, err := l.TruncateBelow(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(horizon - 1); dropped != want {
		t.Fatalf("base moved %d bytes, want %d", dropped, want)
	}
	if got := l.RetainedBytes(); got != int64(l.Tail()-horizon) {
		t.Fatalf("retained %d bytes, want %d", got, l.Tail()-horizon)
	}
	if len(l.s.chunks) >= chunks {
		t.Fatalf("no chunk freed: %d -> %d", chunks, len(l.s.chunks))
	}
	if _, _, err := l.Read(lsns[2499]); err == nil {
		t.Fatal("read below the retained base succeeded")
	}
	if again, err := l.TruncateBelow(lsns[100]); err != nil || again != 0 {
		t.Fatalf("truncating below the base again: %d, %v", again, err)
	}
	l.Append(TxnCommit{Txn: 1}) // not durable: lost at the crash
	l.Crash()
	n := 0
	if err := l.Iterate(1, func(lsn LSN, _ Record) error {
		if lsn != lsns[2500+n] {
			t.Fatalf("record %d at LSN %d, want %d", n, lsn, lsns[2500+n])
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("iterated %d retained records after a crash, want 500", n)
	}
}

// TestCheckpointDue follows the automatic-checkpoint bookkeeping: due an
// interval past the last redo point, re-armed by a checkpoint, postponed
// by a failure, and re-computed when the interval changes.
func TestCheckpointDue(t *testing.T) {
	l := NewLog()
	l.SetCheckpointInterval(1000)
	for l.BytesAppended() < 999 {
		if l.CheckpointDue() {
			t.Fatalf("due at %d bytes", l.BytesAppended())
		}
		l.Append(TxnCommit{Txn: 1})
	}
	for !l.CheckpointDue() {
		l.Append(TxnCommit{Txn: 1})
	}
	redo := l.Tail()
	l.CheckpointTaken(redo)
	if l.CheckpointDue() || l.BytesSinceCheckpoint() != 0 {
		t.Fatalf("due right after a checkpoint (%d bytes since)", l.BytesSinceCheckpoint())
	}
	l.SetCheckpointInterval(1)
	l.Append(TxnCommit{Txn: 2})
	if !l.CheckpointDue() {
		t.Fatal("a lowered interval did not take effect")
	}
	l.SetCheckpointInterval(1000)
	l.CheckpointFailed()
	if l.CheckpointDue() {
		t.Fatal("due right after a failed checkpoint")
	}
	if got := l.BytesSinceCheckpoint(); got <= 0 {
		t.Fatalf("a failure reset the bytes since the last checkpoint (%d)", got)
	}
}

// TestSegmentRetentionFault: a failure at the wal.truncate point stops
// the deletions where it happened; the segments already deleted leave
// the index, and the next truncation picks up from there.
func TestSegmentRetentionFault(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{SegmentBytes: 256})
	defer l.Close()
	inj := fault.New(1)
	l.SetInjector(inj)
	var lsns []LSN
	for i := 0; i < 200; i++ {
		lsns = append(lsns, l.Append(TxnCommit{Txn: uint64(i + 1)}))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	_, _, before := l.SegmentCounts()
	inj.Arm(fault.WALTruncate, fault.Schedule{Kind: fault.KindError, OnHit: 2})
	dropped, err := l.TruncateBelow(lsns[180])
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("TruncateBelow with a failing second deletion: %v", err)
	}
	_, deleted, live := l.SegmentCounts()
	if deleted != 1 || dropped <= 0 {
		t.Fatalf("partial retention: %d deleted, base moved %d", deleted, dropped)
	}
	if got := int64(len(segFiles(t, dir))); got != live || live != before-1 {
		t.Fatalf("segments on disk %d, live %d, before %d", got, live, before)
	}
	if _, err := l.TruncateBelow(lsns[180]); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if _, _, err := l.Read(lsns[180]); err != nil {
		t.Fatalf("Read(horizon) after retention: %v", err)
	}
	if _, deleted, _ := l.SegmentCounts(); deleted < 3 {
		t.Fatalf("retry deleted only %d segments in all", deleted)
	}
}
