package wal

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/workload"
)

func allRecordSamples() []Record {
	return []Record{
		TxnCommit{Txn: 9, PrevLSN: 4},
		TxnAbort{Txn: 9, PrevLSN: 4},
		TxnEnd{Txn: 9, PrevLSN: 12},
		Update{Txn: 3, PrevLSN: 7, Page: 12, Op: OpInsert,
			Key: []byte("k"), OldVal: []byte{}, NewVal: []byte("v")},
		Update{Txn: 0, PrevLSN: 0, Page: 5, Op: OpSetNext,
			Key: []byte{}, OldVal: []byte{0, 0, 0, 0}, NewVal: []byte{9, 0, 0, 0}},
		Update{Txn: 3, Page: 12, Op: OpReplace, Key: []byte("k"), OldVal: []byte{},
			NewVal: []byte("v2"), Committed: true},
		Update{Txn: 4, Page: 12, Op: OpDelete, Key: []byte("k"), OldVal: []byte{},
			NewVal: []byte{}, Committed: true},
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
		Split{Left: 5, Right: 6, Level: 0, Sep: []byte("m"), RightNext: 9,
			NextPage: 9, Base: 4, BaseOldKey: []byte("zz"), BaseNewKey: []byte("a")},
		RootSplit{Root: 2, Low: 10, High: 11, Level: 1, Sep: []byte("m")},
		FreeChain{Survivor: 2, EntryKey: []byte("k"), Dealloc: []storage.PageID{7, 8},
			Leaf: 8, PrevLeaf: 6, NextLeaf: 9},
		PageImages{Pages: []storage.PageID{7, 8},
			Images: [][]byte{[]byte("img7"), []byte("img8")}},
		PageImages{Pages: []storage.PageID{7, 8, 9},
			Images:  [][]byte{[]byte("new7"), []byte("new8"), []byte("new9")},
			Dealloc: []storage.PageID{8}},
		Checkpoint{ // minimal checkpoint (decode yields empty, not nil, byte fields)
			Reorg: ReorgTableSnap{LK: []byte{}},
		},
	}
}

// normalize returns what a round trip makes of r: a nil byte string
// decodes as []byte{}, and a list of any kind with no elements — byte
// strings, pages, index entries, active transactions — decodes as nil.
func normalize(r Record) Record {
	v := reflect.New(reflect.TypeOf(r)).Elem()
	v.Set(reflect.ValueOf(r))
	normalizeValue(v)
	return v.Interface().(Record)
}

func normalizeValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalizeValue(v.Field(i))
		}
	case reflect.Slice:
		switch {
		case v.Type().Elem().Kind() == reflect.Uint8:
			if v.IsNil() {
				v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			}
		case v.Len() == 0:
			v.Set(reflect.Zero(v.Type()))
		default:
			// Normalise a copy: the caller's record stays as it was built.
			c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			reflect.Copy(c, v)
			for i := 0; i < c.Len(); i++ {
				normalizeValue(c.Index(i))
			}
			v.Set(c)
		}
	}
}

func TestEncodeDecodeAllTypes(t *testing.T) {
	for _, r := range allRecordSamples() {
		b := Encode(r)
		got, err := Decode(b)
		if err != nil {
			t.Errorf("%T: decode: %v", r, err)
			continue
		}
		if !reflect.DeepEqual(got, normalize(r)) {
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
	// Log format 3's begin record (type byte, txn id) and the
	// comparator's old block-operation records are refused with a typed
	// error, whatever follows the type byte.
	for _, typ := range []Type{tRetiredBegin, tRetiredBlockBegin, tRetiredBlockEnd} {
		for _, b := range [][]byte{{byte(typ), 9}, {byte(typ)}} {
			var retired *RetiredTypeError
			if r, err := Decode(b); !errors.As(err, &retired) || retired.Type != typ {
				t.Errorf("Decode(%x) = %#v, %v; want a RetiredTypeError", b, r, err)
			}
		}
	}
	// Every checkpoint field is mandatory: there is no shorter, older
	// encoding that still decodes.
	b = Encode(Checkpoint{NextTxnID: 12, RedoLSN: 5})
	if _, err := Decode(b[:len(b)-1]); err == nil {
		t.Error("checkpoint without its RedoLSN should fail")
	}

	move := enc(nil).u8(uint8(TReorgMove)).uv(1).uv(2).page(3).page(4).boolean(false)
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"trailing byte", append(Encode(TxnCommit{Txn: 9}), 0xFF), "1 bytes after the end"},
		{"trailing record", append(Encode(TxnCommit{Txn: 9}), Encode(TxnCommit{Txn: 9})...), "3 bytes after the end"},
		{"varint past 64 bits", []byte{byte(TTxnCommit), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, "too large"},
		{"unterminated varint", []byte{byte(TTxnCommit), 0x80, 0x80}, "truncated"},
		{"page id past 32 bits", enc(nil).u8(uint8(TDealloc)).uv(math.MaxUint32 + 1), "too large"},
		{"page type past 16 bits", enc(nil).u8(uint8(TAlloc)).page(1).uv(math.MaxUint16 + 1).uv(0), "too large"},
		{"bool byte 2", enc(nil).u8(uint8(TReorgMove)).uv(1).uv(2).page(3).page(4).u8(2).uv(0), "bool byte"},
		{"length past the record", enc(nil).u8(uint8(TReorgEnd)).uv(1).uv(2).uv(3).u8('k'), "truncated"},
		{"length that is a negative int", enc(nil).u8(uint8(TReorgEnd)).uv(1).uv(2).uv(math.MaxUint64), "truncated"},
		{"list count past the record", append(move, enc(nil).uv(math.MaxInt64)...), "truncated"},
		{"page count past the record", enc(nil).u8(uint8(TFreeChain)).page(1).bytes(nil).uv(1 << 40), "truncated"},
		{"shared prefix longer than predecessor",
			append(move, enc(nil).uv(2).uv(0).bytes([]byte("a")).uv(2).bytes(nil)...), "longer than the 1-byte element"},
		{"shared prefix on the first element", append(move, enc(nil).uv(1).uv(1).bytes(nil)...), "longer than the 0-byte element"},
		{"list expanding past its bound", listBomb(move), "more than"},
	} {
		r, err := Decode(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode = %#v, %v; want an error containing %q", tc.name, r, err, tc.want)
		}
	}
}

// listBomb appends to a MOVE header a list of 4 KiB elements, each
// equal to the one before it: three bytes of log apiece, until the
// decoded list would exceed maxListBytes.
func listBomb(move []byte) []byte {
	const elem = 4 << 10
	n := maxListBytes/elem + 1
	b := append(move, enc(nil).uv(uint64(n)).uv(0).bytes(make([]byte, elem))...)
	for i := 1; i < n; i++ {
		b = enc(b).uv(elem).bytes(nil)
	}
	return b
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
	l.Append(TxnCommit{Txn: 1})
	mid := l.Append(TxnCommit{Txn: 2})
	l.Append(TxnCommit{Txn: 3})
	var ids []uint64
	_ = l.Iterate(mid, func(_ LSN, r Record) error {
		ids = append(ids, r.(TxnCommit).Txn)
		return nil
	})
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("ids = %v, want [2 3]", ids)
	}
}

func TestCrashDiscardsUnflushed(t *testing.T) {
	l := NewLog()
	a := l.Append(TxnCommit{Txn: 1})
	if err := l.FlushTo(a); err != nil {
		t.Fatal(err)
	}
	l.Append(TxnCommit{Txn: 2})
	l.Crash()
	var ids []uint64
	_ = l.Iterate(1, func(_ LSN, r Record) error {
		ids = append(ids, r.(TxnCommit).Txn)
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
	lsn := l.Append(TxnCommit{Txn: 1})
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
	l.Append(TxnCommit{Txn: 1})
	l.Append(Checkpoint{NextTxnID: 5})
	want := Checkpoint{NextTxnID: 9}
	at := l.Append(want)
	l.Append(TxnCommit{Txn: 2})
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

// frontCodingEdges are the [][]byte lists whose front coding has an edge:
// none, one element, an element equal to, a prefix of, or an extension
// of the one before it, unsorted elements, and empty elements anywhere.
var frontCodingEdges = [][][]byte{
	nil,
	{},
	{[]byte("only")},
	{[]byte("same"), []byte("same"), []byte("same")},
	{[]byte("longer-key"), []byte("longer"), []byte("lo"), []byte("")},
	{[]byte(""), []byte("l"), []byte("lo"), []byte("longer-key")},
	{[]byte("zeta"), []byte("alpha"), []byte("zebra"), []byte("alps")},
	{[]byte{}, nil, []byte("x"), []byte{}, []byte("x")},
	{[]byte("user00001000"), []byte("user00001001"), []byte("user00001010"), []byte("user00002000")},
}

// recordGen fills records with values drawn from the varint boundaries
// and byte lists from frontCodingEdges or random ones.
type recordGen struct{ rng *rand.Rand }

func (g recordGen) u64() uint64 {
	edges := []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32, math.MaxUint64}
	if g.rng.Intn(2) == 0 {
		return edges[g.rng.Intn(len(edges))]
	}
	return g.rng.Uint64() >> g.rng.Intn(64)
}

func (g recordGen) bytes() []byte {
	if g.rng.Intn(8) == 0 {
		return nil
	}
	b := make([]byte, g.rng.Intn(40))
	g.rng.Read(b)
	return b
}

func (g recordGen) list() [][]byte {
	if g.rng.Intn(2) == 0 {
		return frontCodingEdges[g.rng.Intn(len(frontCodingEdges))]
	}
	out := make([][]byte, g.rng.Intn(6))
	for i := range out {
		out[i] = g.bytes()
		if i > 0 && g.rng.Intn(2) == 0 {
			// Share a random prefix of the element before.
			prev := out[i-1]
			out[i] = append(append([]byte(nil), prev[:g.rng.Intn(len(prev)+1)]...), out[i]...)
		}
	}
	return out
}

// fill sets v (settable) to a random value of its type.
func (g recordGen) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			g.fill(v.Field(i))
		}
	case reflect.Bool:
		v.SetBool(g.rng.Intn(2) == 0)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		// Truncating to the field's width keeps MaxUint32 page ids and
		// MaxUint16 page types among the values drawn.
		v.SetUint(g.u64() & (1<<(8*v.Type().Size()) - 1))
	case reflect.Slice:
		switch {
		case v.Type() == reflect.TypeOf([]byte(nil)):
			v.Set(reflect.ValueOf(g.bytes()))
		case v.Type() == reflect.TypeOf([][]byte(nil)):
			v.Set(reflect.ValueOf(g.list()))
		default:
			s := reflect.MakeSlice(v.Type(), g.rng.Intn(4), 4)
			for i := 0; i < s.Len(); i++ {
				g.fill(s.Index(i))
			}
			v.Set(s)
		}
	default:
		panic("recordGen: no generator for " + v.Type().String())
	}
}

// TestQuickUpdateRoundTrip is a round-trip property over every record
// type: Decode(Encode(r)) equals r up to normalize's rules, for
// integers at the varint boundaries (0, MaxUint32 page ids, MaxUint64)
// and lists with every front-coding edge.
func TestQuickUpdateRoundTrip(t *testing.T) {
	types := map[Type]reflect.Type{}
	for _, r := range allRecordSamples() {
		types[Type(Encode(r)[0])] = reflect.TypeOf(r)
	}
	// Every type byte up to the last is written, except the three
	// retired ones.
	if len(types) != int(TPageImages)-3 {
		t.Fatalf("allRecordSamples covers %d record types, want %d", len(types), TPageImages-3)
	}
	roundTrip := func(in Record) bool {
		out, err := Decode(Encode(in))
		if err != nil || !reflect.DeepEqual(out, normalize(in)) {
			t.Errorf("%T round trip:\n  in %#v\n out %#v (err %v)", in, in, out, err)
			return false
		}
		return true
	}
	for _, edge := range frontCodingEdges {
		roundTrip(ReorgMove{Unit: 1, Full: true, Records: edge})
		roundTrip(ReorgMove{Unit: 1, Records: edge})
	}
	f := func(seed int64) bool {
		g := recordGen{rand.New(rand.NewSource(seed))}
		for typ, rt := range types {
			v := reflect.New(rt).Elem()
			g.fill(v)
			rec := v.Interface().(Record)
			if u, ok := rec.(Update); ok {
				// Update is two shapes: a committed one logs neither
				// PrevLSN nor OldVal.
				u.Committed = typ == TUpdateCommitted
				if u.Committed {
					u.PrevLSN, u.OldVal = 0, nil
				}
				rec = u
			}
			if !roundTrip(rec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzDecode feeds Decode arbitrary bytes: it must return an error or a
// record, never panic, and a record it returns must survive a round
// trip unchanged.
func FuzzDecode(f *testing.F) {
	for _, r := range allRecordSamples() {
		f.Add(Encode(r))
	}
	f.Add([]byte{byte(tRetiredBegin), 9})      // log format 3's begin record
	f.Add([]byte{byte(tRetiredBlockBegin), 4}) // the comparator's old records
	f.Add([]byte{byte(tRetiredBlockEnd), 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := Decode(b)
		if err != nil {
			return
		}
		again, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("re-decoding %#v: %v", r, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip changed the record:\n was %#v\n now %#v", r, again)
		}
	})
}

// TestEncodedSizes pins the encoded size of the records that make up
// the benchmark's log at its magnitudes (page ids near 5 000, LSNs near
// 2^27), so a change to the encoding shows up here as well as in
// wal_bytes_per_op. The log adds a 4-byte length to each payload.
func TestEncodedSizes(t *testing.T) {
	key, val := workload.Key(123456), workload.Value(123456, 48)
	var keys [][]byte
	for i := 0; i < 10; i++ {
		keys = append(keys, workload.Key(1000+i))
	}
	for _, tc := range []struct {
		name string
		r    Record
		want int
	}{
		{"replace update", Update{Txn: 1 << 20, PrevLSN: 1 << 27, Page: 5000, Op: OpReplace,
			Key: key, OldVal: val, NewVal: val}, 122},
		// An auto-commit write is one committed record: no PrevLSN, no
		// before-image, and no begin or commit record around it (those
		// two were 12 and 14 more bytes with their length prefixes).
		{"committed replace", Update{Txn: 1 << 20, Page: 5000, Op: OpReplace,
			Key: key, NewVal: val, Committed: true}, 69},
		{"committed insert", Update{Txn: 1 << 20, Page: 5000, Op: OpInsert,
			Key: key, NewVal: val, Committed: true}, 69},
		{"committed delete", Update{Txn: 1 << 20, Page: 5000, Op: OpDelete,
			Key: key, Committed: true}, 21},
		{"keys-only move of ten keys", ReorgMove{Unit: 1000, PrevLSN: 1 << 27, Org: 5000, Dest: 5001,
			Records: keys}, 54},
		// A split logs no cells (format 5): the 28 moved cells of a leaf
		// of a tree loaded at stride 4 made this record 1 479 bytes.
		{"leaf split", Split{Left: 5000, Right: 5001, Sep: workload.Key(4 * 4000),
			RightNext: 5002, NextPage: 5002, Base: 40}, 26},
	} {
		if got := len(Encode(tc.r)); got != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAppendAllocatesNothing pins that appending an auto-commit-sized
// update — the record built at the call, as the transaction layer does —
// encodes on the stack: the only allocation left is the stream's next
// chunk, once per 64 KiB or more, which AllocsPerRun's per-run average
// rounds away.
func TestAppendAllocatesNothing(t *testing.T) {
	l := NewLog()
	key, val := workload.Key(123456), workload.Value(123456, 48)
	var prev LSN
	allocs := testing.AllocsPerRun(1000, func() {
		prev = l.Append(Update{Txn: 1 << 20, PrevLSN: prev, Page: 5000, Op: OpReplace,
			Key: key, OldVal: val, NewVal: val})
	})
	if allocs != 0 {
		t.Errorf("Append of an update allocates %.0f times per call, want 0", allocs)
	}
}
