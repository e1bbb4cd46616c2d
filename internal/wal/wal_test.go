package wal

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func allRecordSamples() []Record {
	return []Record{
		TxnBegin{Txn: 9},
		TxnCommit{Txn: 9, PrevLSN: 4},
		TxnAbort{Txn: 9, PrevLSN: 4},
		TxnEnd{Txn: 9, PrevLSN: 12},
		Update{Txn: 3, PrevLSN: 7, Page: 12, Op: OpInsert,
			Key: []byte("k"), OldVal: []byte{}, NewVal: []byte("v")},
		Update{Txn: 0, PrevLSN: 0, Page: 5, Op: OpSetNext,
			Key: []byte{}, OldVal: []byte{0, 0, 0, 0}, NewVal: []byte{9, 0, 0, 0}},
		CLR{Txn: 3, UndoNext: 2, Page: 12, Op: OpDelete, Key: []byte("k"), NewVal: []byte{}},
		ReorgBegin{Unit: 1, RType: RCompact, BasePages: []storage.PageID{4},
			LeafPages: []storage.PageID{7, 8, 9}, Dest: 7, NewPlace: false,
			Preds: []storage.PageID{6}, Succs: []storage.PageID{10}},
		ReorgBegin{Unit: 2, RType: RSwap, BasePages: []storage.PageID{4, 5},
			LeafPages: []storage.PageID{7, 20}, Dest: 20, NewPlace: false},
		ReorgMove{Unit: 1, PrevLSN: 44, Org: 8, Dest: 7, Full: false,
			Records: [][]byte{[]byte("a"), []byte("b")}},
		ReorgMove{Unit: 1, PrevLSN: 44, Org: 8, Dest: 7, Full: true,
			Records: [][]byte{[]byte("cell-bytes-1"), []byte("cell-bytes-2")}},
		ReorgSwap{Unit: 2, PrevLSN: 50, PageA: 7, PageB: 20, ImageA: []byte("full page image")},
		ReorgModify{Unit: 1, PrevLSN: 60, Base: 4,
			Removes:  [][]byte{[]byte("b"), []byte("c")},
			Replaces: []IndexReplace{{OldKey: []byte("a"), NewKey: []byte("a2"), NewChild: 7}},
			Inserts:  []IndexEntry{{Key: []byte("z"), Child: 30}}},
		ReorgEnd{Unit: 1, PrevLSN: 70, LargestKey: []byte("zz")},
		Alloc{Page: 31, Typ: storage.PageInternal, Aux: 2},
		Dealloc{Page: 31},
		StableKey{Key: []byte("m"), NewRoot: 50, NewHeight: 3},
		SwitchRoot{OldRoot: 2, NewRoot: 50, NewHeight: 2, NewEpoch: 5},
		Checkpoint{
			ActiveTxns: []TxnInfo{{ID: 3, LastLSN: 9}, {ID: 4, LastLSN: 11}},
			Reorg: ReorgTableSnap{HasUnit: true, Unit: 6, BeginLSN: 100,
				LastLSN: 140, HasLK: true, LK: []byte("kk")},
			NextTxnID: 12, RedoLSN: 90,
		},
		Split{Left: 5, Right: 6, Level: 0, Sep: []byte("m"),
			Moved: [][]byte{[]byte("cell1"), []byte("cell2")}, RightNext: 9,
			NextPage: 9, Base: 4, BaseOldKey: []byte("zz"), BaseNewKey: []byte("a")},
		RootSplit{Root: 2, Low: 10, High: 11, Level: 1, Sep: []byte("m"),
			LowCells: [][]byte{[]byte("a")}, HiCells: [][]byte{[]byte("z")}},
		FreeChain{Survivor: 2, EntryKey: []byte("k"), Dealloc: []storage.PageID{7, 8},
			Leaf: 8, PrevLeaf: 6, NextLeaf: 9},
		BaselineBegin{Seq: 4, Pages: []storage.PageID{7, 8},
			Images: [][]byte{[]byte("img7"), []byte("img8")}},
		BaselineEnd{Seq: 4, Pages: []storage.PageID{7, 8},
			Images: [][]byte{[]byte("new7"), []byte("new8")}},
		Checkpoint{ // minimal checkpoint (decode yields empty, not nil, byte fields)
			Reorg: ReorgTableSnap{LK: []byte{}},
		},
	}
}

func normalize(r Record) Record { return r }

func TestEncodeDecodeAllTypes(t *testing.T) {
	for _, r := range allRecordSamples() {
		b := Encode(r)
		got, err := Decode(b)
		if err != nil {
			t.Errorf("%T: decode: %v", r, err)
			continue
		}
		if !reflect.DeepEqual(normalize(got), normalize(r)) {
			t.Errorf("%T round trip mismatch:\n got %#v\nwant %#v", r, got, r)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("decoding empty record should fail")
	}
	if _, err := Decode([]byte{0xFE}); err == nil {
		t.Error("unknown type should fail")
	}
	// Truncated update record.
	b := Encode(Update{Txn: 1, Page: 2, Op: OpInsert, Key: []byte("long-key")})
	if _, err := Decode(b[:len(b)-3]); err == nil {
		t.Error("truncated record should fail")
	}
	// Every checkpoint field is mandatory: there is no shorter, older
	// encoding that still decodes.
	b = Encode(Checkpoint{NextTxnID: 12, RedoLSN: 5})
	if _, err := Decode(b[:len(b)-8]); err == nil {
		t.Error("checkpoint without its RedoLSN should fail")
	}
}

func TestAppendReadIterate(t *testing.T) {
	l := NewLog()
	var lsns []LSN
	recs := allRecordSamples()
	for _, r := range recs {
		lsns = append(lsns, l.Append(r))
	}
	if lsns[0] != 1 {
		t.Errorf("first LSN = %d, want 1", lsns[0])
	}
	for i, lsn := range lsns {
		r, _, err := l.Read(lsn)
		if err != nil {
			t.Fatalf("read %d: %v", lsn, err)
		}
		if !reflect.DeepEqual(r, recs[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
	var seen int
	err := l.Iterate(1, func(lsn LSN, r Record) error {
		if lsn != lsns[seen] {
			t.Errorf("iterate lsn %d, want %d", lsn, lsns[seen])
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(recs) {
		t.Errorf("iterated %d records, want %d", seen, len(recs))
	}
}

func TestIterateFromMiddle(t *testing.T) {
	l := NewLog()
	l.Append(TxnBegin{Txn: 1})
	mid := l.Append(TxnBegin{Txn: 2})
	l.Append(TxnBegin{Txn: 3})
	var ids []uint64
	_ = l.Iterate(mid, func(_ LSN, r Record) error {
		ids = append(ids, r.(TxnBegin).Txn)
		return nil
	})
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("ids = %v, want [2 3]", ids)
	}
}

func TestCrashDiscardsUnflushed(t *testing.T) {
	l := NewLog()
	a := l.Append(TxnBegin{Txn: 1})
	if err := l.FlushTo(a); err != nil {
		t.Fatal(err)
	}
	l.Append(TxnBegin{Txn: 2})
	l.Crash()
	var ids []uint64
	_ = l.Iterate(1, func(_ LSN, r Record) error {
		ids = append(ids, r.(TxnBegin).Txn)
		return nil
	})
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("after crash ids = %v, want [1]", ids)
	}
}

func TestFlushToCoversWholeRecord(t *testing.T) {
	l := NewLog()
	lsn := l.Append(Update{Txn: 1, Page: 1, Op: OpInsert, Key: []byte("abc"), NewVal: []byte("def")})
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	r, _, err := l.Read(lsn)
	if err != nil {
		t.Fatalf("record flushed by FlushTo lost at crash: %v", err)
	}
	if u, ok := r.(Update); !ok || string(u.Key) != "abc" {
		t.Errorf("got %#v", r)
	}
}

func TestFlushToIdempotentAndCounts(t *testing.T) {
	l := NewLog()
	lsn := l.Append(TxnBegin{Txn: 1})
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	n := l.ForcedWrites()
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	if l.ForcedWrites() != n {
		t.Error("second FlushTo of durable record forced another write")
	}
	if err := l.FlushTo(0); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushTo(99999); err == nil {
		t.Error("flush beyond tail should fail")
	}
}

func TestLastCheckpoint(t *testing.T) {
	l := NewLog()
	if _, _, ok := l.LastCheckpoint(); ok {
		t.Error("empty log reported a checkpoint")
	}
	l.Append(TxnBegin{Txn: 1})
	l.Append(Checkpoint{NextTxnID: 5})
	want := Checkpoint{NextTxnID: 9}
	at := l.Append(want)
	l.Append(TxnBegin{Txn: 2})
	lsn, cp, ok := l.LastCheckpoint()
	if !ok || lsn != at || cp.NextTxnID != 9 {
		t.Errorf("LastCheckpoint = %d %v %v", lsn, cp, ok)
	}
}

func TestBytesAppendedMonotonic(t *testing.T) {
	l := NewLog()
	before := l.BytesAppended()
	l.Append(ReorgMove{Unit: 1, Records: [][]byte{make([]byte, 100)}})
	small := l.BytesAppended() - before
	l.Append(ReorgMove{Unit: 1, Full: true, Records: [][]byte{make([]byte, 1000)}})
	large := l.BytesAppended() - before - small
	if small <= 0 || large <= small {
		t.Errorf("log accounting wrong: small=%d large=%d", small, large)
	}
}

// Property: Update records round-trip for arbitrary byte payloads.
func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(txn, prev uint64, page uint32, key, oldV, newV []byte) bool {
		if key == nil {
			key = []byte{}
		}
		if oldV == nil {
			oldV = []byte{}
		}
		if newV == nil {
			newV = []byte{}
		}
		in := Update{Txn: txn, PrevLSN: prev, Page: storage.PageID(page),
			Op: OpReplace, Key: key, OldVal: oldV, NewVal: newV}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
