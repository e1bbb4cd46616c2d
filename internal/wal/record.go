// Package wal implements the write-ahead log: binary-encoded record
// types for transaction operations, reorganization units
// (BEGIN/MOVE/MODIFY/END plus SWAP), pass-3 bookkeeping (allocation,
// stable keys, the root switch), and checkpoints that embed the
// paper's reorganization table.
//
// Logging is physiological: user updates are logical within a page
// (keyed operations), which makes redo idempotent, while reorganization
// MOVE records may carry only keys under careful writing (§5 of the
// paper) and are re-executed logically by forward recovery.
package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// Type tags a log record.
type Type uint8

// Log record types.
const (
	TInvalid Type = iota
	TTxnBegin
	TTxnCommit
	TTxnAbort
	TTxnEnd
	TUpdate
	TCLR
	TReorgBegin
	TReorgMove
	TReorgSwap
	TReorgModify
	TReorgEnd
	TAlloc
	TDealloc
	TStableKey
	TSwitchRoot
	TCheckpoint
	TSplit
	TRootSplit
	TFreeChain
	TBaselineBegin
	TBaselineEnd
)

func (t Type) String() string {
	names := [...]string{"invalid", "txn-begin", "txn-commit", "txn-abort",
		"txn-end", "update", "clr", "reorg-begin", "reorg-move", "reorg-swap",
		"reorg-modify", "reorg-end", "alloc", "dealloc", "stable-key",
		"switch-root", "checkpoint", "split", "root-split", "free-chain",
		"baseline-begin", "baseline-end"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Op is the page-level operation carried by Update and CLR records.
type Op uint8

// Update operations (logical within one page).
const (
	OpInsert  Op = iota + 1 // insert Key -> NewVal (leaf) / child (index)
	OpDelete                // delete Key (OldVal kept for undo)
	OpReplace               // replace Key's value OldVal -> NewVal
	OpSetNext               // side pointer change, OldVal/NewVal are u32 ids
	OpSetPrev               // side pointer change
	OpFormat                // (re)format page, NewVal = u16 type | u32 aux
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReplace:
		return "replace"
	case OpSetNext:
		return "set-next"
	case OpSetPrev:
		return "set-prev"
	case OpFormat:
		return "format"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ReorgType identifies what a reorganization unit does (the Type field
// of the paper's BEGIN record).
type ReorgType uint8

// Reorganization unit types.
const (
	RCompact ReorgType = iota + 1 // compact leaves under one base page
	RSwap                         // swap two leaf pages
	RMove                         // move one leaf page to an empty page
)

func (r ReorgType) String() string {
	switch r {
	case RCompact:
		return "compact"
	case RSwap:
		return "swap"
	case RMove:
		return "move"
	default:
		return fmt.Sprintf("rtype(%d)", uint8(r))
	}
}

// Record is any log record.
type Record interface{ recordType() Type }

// TxnBegin starts a transaction.
type TxnBegin struct {
	Txn uint64
}

// TxnCommit commits a transaction (forces the log).
type TxnCommit struct {
	Txn     uint64
	PrevLSN uint64
}

// TxnAbort marks a transaction as rolling back.
type TxnAbort struct {
	Txn     uint64
	PrevLSN uint64
}

// TxnEnd marks rollback complete.
type TxnEnd struct {
	Txn     uint64
	PrevLSN uint64
}

// Update is a logical page operation by a transaction (Txn 0 = system /
// structure modification, never undone).
type Update struct {
	Txn     uint64
	PrevLSN uint64
	Page    storage.PageID
	Op      Op
	Key     []byte
	OldVal  []byte
	NewVal  []byte
}

// CLR is a compensation record written while undoing an Update.
type CLR struct {
	Txn      uint64
	UndoNext uint64 // prevLSN of the record just undone
	Page     storage.PageID
	Op       Op // the compensating operation already applied
	Key      []byte
	NewVal   []byte
}

// ReorgBegin opens a reorganization unit. Written only after every lock
// for the unit is held (§5).
type ReorgBegin struct {
	Unit      uint64
	RType     ReorgType
	BasePages []storage.PageID
	LeafPages []storage.PageID
	Dest      storage.PageID // destination leaf (compaction target or move target)
	NewPlace  bool           // Dest is a freshly allocated empty page
	// Side-pointer neighbours locked by the unit (§4.3). Recording them
	// in BEGIN makes forward recovery deterministic: the pointer fixes
	// can be re-executed without guessing the pre-unit chain.
	Preds []storage.PageID
	Succs []storage.PageID
}

// ReorgMove logs movement of records from Org to Dest. Under careful
// writing Full is false and Records holds only keys; otherwise Records
// holds full leaf cells.
type ReorgMove struct {
	Unit    uint64
	PrevLSN uint64
	Org     storage.PageID
	Dest    storage.PageID
	Full    bool
	Records [][]byte
}

// ReorgSwap logs an exchange of two leaf pages' contents. ImageA is the
// full pre-swap page image of PageA (the paper: at least one full page
// must be logged); careful writing orders the flushes of the two pages.
type ReorgSwap struct {
	Unit    uint64
	PrevLSN uint64
	PageA   storage.PageID
	PageB   storage.PageID
	ImageA  []byte
}

// IndexEntry is one (key, child) pair in a ReorgModify.
type IndexEntry struct {
	Key   []byte
	Child storage.PageID
}

// IndexReplace rewrites one base-page entry.
type IndexReplace struct {
	OldKey   []byte
	NewKey   []byte
	NewChild storage.PageID
}

// ReorgModify logs the base-page key/pointer changes after records have
// been moved (the paper's MODIFY record).
type ReorgModify struct {
	Unit     uint64
	PrevLSN  uint64
	Base     storage.PageID
	Removes  [][]byte // keys of entries to delete
	Replaces []IndexReplace
	Inserts  []IndexEntry
}

// ReorgEnd closes a reorganization unit; LargestKey becomes LK in the
// reorg table.
type ReorgEnd struct {
	Unit       uint64
	PrevLSN    uint64
	LargestKey []byte
}

// Alloc logs a page allocation (pass-3 new-tree pages and split pages).
type Alloc struct {
	Page storage.PageID
	Typ  storage.PageType
	Aux  uint32
}

// Dealloc logs a page deallocation.
type Dealloc struct {
	Page storage.PageID
}

// StableKey is a pass-3 stable point: every new-tree page holding keys
// <= Key is on disk, and NewRoot roots the partially built tree.
type StableKey struct {
	Key       []byte
	NewRoot   storage.PageID
	NewHeight uint32
}

// SwitchRoot records the atomic switch from the old tree to the new.
type SwitchRoot struct {
	OldRoot   storage.PageID
	NewRoot   storage.PageID
	NewHeight uint32
	NewEpoch  uint64 // new tree's lock name epoch
}

// Split is a logically-atomic structure modification: one record
// describes the whole page split so recovery can redo each affected
// page independently (per-page pageLSN tests) with no partial-SMO
// states. Left keeps keys < Sep; Right receives Moved (full cells).
// For leaf splits (Level 0) the side pointers are rewired; Base
// receives the (Sep -> Right) entry.
type Split struct {
	Left      storage.PageID
	Right     storage.PageID
	Level     uint32
	Sep       []byte
	Moved     [][]byte
	RightNext storage.PageID // old Left.next
	NextPage  storage.PageID // page whose Prev becomes Right (0 if none)
	Base      storage.PageID // parent receiving the new entry
	// After free-at-empty, the left child's routing entry key can sit
	// above keys later inserted through the leftmost-child rule; the
	// split lowers it to the child's true low mark so the new separator
	// keeps the parent's entries ordered.
	BaseOldKey []byte
	BaseNewKey []byte
}

// RootSplit grows the tree one level while keeping the root's page id
// (the anchor's root pointer changes only at the pass-3 switch). The
// root's current cells are divided at Sep into new pages Low and High
// and the root becomes their parent.
type RootSplit struct {
	Root     storage.PageID
	Low      storage.PageID
	High     storage.PageID
	Level    uint32 // level of Low/High (root becomes Level+1)
	Sep      []byte
	LowCells [][]byte // full cells for Low (keys < Sep)
	HiCells  [][]byte // full cells for High
}

// FreeChain is the free-at-empty structure modification [JS93]: an
// empty leaf (and any ancestors emptied by its removal) is unlinked
// from the survivor node and deallocated, and the leaf chain's side
// pointers are rewired.
type FreeChain struct {
	Survivor storage.PageID // node whose entry is removed
	EntryKey []byte         // key of the entry removed from Survivor
	Dealloc  []storage.PageID
	Leaf     storage.PageID // the empty leaf (included in Dealloc)
	PrevLeaf storage.PageID // whose Next becomes NextLeaf (0 if none)
	NextLeaf storage.PageID // whose Prev becomes PrevLeaf (0 if none)
}

// BaselineBegin opens one block operation of the Tandem-style baseline
// reorganizer [Smi90]: full before-images of every page the operation
// will touch. An operation without a matching BaselineEnd is rolled
// back physically at restart (the baseline's rollback-on-crash
// behaviour the paper contrasts Forward Recovery against).
type BaselineBegin struct {
	Seq    uint64
	Pages  []storage.PageID
	Images [][]byte
}

// BaselineEnd closes a block operation with full after-images (the
// redo information).
type BaselineEnd struct {
	Seq    uint64
	Pages  []storage.PageID
	Images [][]byte
}

// TxnInfo is one active transaction in a checkpoint.
type TxnInfo struct {
	ID      uint64
	LastLSN uint64
}

// ReorgTableSnap is the paper's in-memory reorganization table: at most
// one in-flight unit (BEGIN and most-recent LSNs) plus LK, the largest
// key of the last finished unit.
type ReorgTableSnap struct {
	HasUnit  bool
	Unit     uint64
	BeginLSN uint64
	LastLSN  uint64
	LK       []byte
	HasLK    bool
}

// Checkpoint is a sharp checkpoint: every page change logged below
// RedoLSN was flushed before it was written, so redo starts at RedoLSN.
// It embeds the reorg table (§5) and holds nothing restart does not
// read: an interrupted pass 3 is cleaned up from the page states
// (core.ReclaimPass3), not from checkpointed progress.
//
// RedoLSN is the log tail read before the tables were snapshotted and
// the pages flushed. Transactions keep logging while a checkpoint is
// taken, so the tables describe some moment between RedoLSN and the
// checkpoint record itself; restart analysis replays every record from
// RedoLSN on over them, which lands on the true state at the crash
// whatever that moment was. Zero (a record built by hand in a test)
// means the checkpoint's own LSN.
type Checkpoint struct {
	ActiveTxns []TxnInfo
	Reorg      ReorgTableSnap
	NextTxnID  uint64
	RedoLSN    uint64
}

func (TxnBegin) recordType() Type      { return TTxnBegin }
func (TxnCommit) recordType() Type     { return TTxnCommit }
func (TxnAbort) recordType() Type      { return TTxnAbort }
func (TxnEnd) recordType() Type        { return TTxnEnd }
func (Update) recordType() Type        { return TUpdate }
func (CLR) recordType() Type           { return TCLR }
func (ReorgBegin) recordType() Type    { return TReorgBegin }
func (ReorgMove) recordType() Type     { return TReorgMove }
func (ReorgSwap) recordType() Type     { return TReorgSwap }
func (ReorgModify) recordType() Type   { return TReorgModify }
func (ReorgEnd) recordType() Type      { return TReorgEnd }
func (Alloc) recordType() Type         { return TAlloc }
func (Dealloc) recordType() Type       { return TDealloc }
func (StableKey) recordType() Type     { return TStableKey }
func (SwitchRoot) recordType() Type    { return TSwitchRoot }
func (Checkpoint) recordType() Type    { return TCheckpoint }
func (Split) recordType() Type         { return TSplit }
func (RootSplit) recordType() Type     { return TRootSplit }
func (FreeChain) recordType() Type     { return TFreeChain }
func (BaselineBegin) recordType() Type { return TBaselineBegin }
func (BaselineEnd) recordType() Type   { return TBaselineEnd }

// --- encoding ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) page(p storage.PageID) { e.u32(uint32(p)) }
func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
}
func (e *enc) byteSlices(bs [][]byte) {
	e.u32(uint32(len(bs)))
	for _, b := range bs {
		e.bytes(b)
	}
}
func (e *enc) pages(ps []storage.PageID) {
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.page(p)
	}
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated record")
	}
}
func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}
func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}
func (d *dec) boolean() bool        { return d.u8() != 0 }
func (d *dec) page() storage.PageID { return storage.PageID(d.u32()) }
func (d *dec) bytesv() []byte {
	n := int(d.u32())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.off:])
	d.off += n
	return v
}
func (d *dec) byteSlices() [][]byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.bytesv())
	}
	return out
}
func (d *dec) pagesv() []storage.PageID {
	n := int(d.u32())
	if d.err != nil || n < 0 || n*4 > len(d.b) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]storage.PageID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.page())
	}
	return out
}

// Encode serialises a record as [type byte | payload].
func Encode(r Record) []byte {
	e := &enc{b: make([]byte, 0, 64)}
	e.u8(uint8(r.recordType()))
	switch v := r.(type) {
	case TxnBegin:
		e.u64(v.Txn)
	case TxnCommit:
		e.u64(v.Txn)
		e.u64(v.PrevLSN)
	case TxnAbort:
		e.u64(v.Txn)
		e.u64(v.PrevLSN)
	case TxnEnd:
		e.u64(v.Txn)
		e.u64(v.PrevLSN)
	case Update:
		e.u64(v.Txn)
		e.u64(v.PrevLSN)
		e.page(v.Page)
		e.u8(uint8(v.Op))
		e.bytes(v.Key)
		e.bytes(v.OldVal)
		e.bytes(v.NewVal)
	case CLR:
		e.u64(v.Txn)
		e.u64(v.UndoNext)
		e.page(v.Page)
		e.u8(uint8(v.Op))
		e.bytes(v.Key)
		e.bytes(v.NewVal)
	case ReorgBegin:
		e.u64(v.Unit)
		e.u8(uint8(v.RType))
		e.pages(v.BasePages)
		e.pages(v.LeafPages)
		e.page(v.Dest)
		e.boolean(v.NewPlace)
		e.pages(v.Preds)
		e.pages(v.Succs)
	case ReorgMove:
		e.u64(v.Unit)
		e.u64(v.PrevLSN)
		e.page(v.Org)
		e.page(v.Dest)
		e.boolean(v.Full)
		e.byteSlices(v.Records)
	case ReorgSwap:
		e.u64(v.Unit)
		e.u64(v.PrevLSN)
		e.page(v.PageA)
		e.page(v.PageB)
		e.bytes(v.ImageA)
	case ReorgModify:
		e.u64(v.Unit)
		e.u64(v.PrevLSN)
		e.page(v.Base)
		e.byteSlices(v.Removes)
		e.u32(uint32(len(v.Replaces)))
		for _, r := range v.Replaces {
			e.bytes(r.OldKey)
			e.bytes(r.NewKey)
			e.page(r.NewChild)
		}
		e.u32(uint32(len(v.Inserts)))
		for _, in := range v.Inserts {
			e.bytes(in.Key)
			e.page(in.Child)
		}
	case ReorgEnd:
		e.u64(v.Unit)
		e.u64(v.PrevLSN)
		e.bytes(v.LargestKey)
	case Alloc:
		e.page(v.Page)
		e.u16(uint16(v.Typ))
		e.u32(v.Aux)
	case Dealloc:
		e.page(v.Page)
	case StableKey:
		e.bytes(v.Key)
		e.page(v.NewRoot)
		e.u32(v.NewHeight)
	case SwitchRoot:
		e.page(v.OldRoot)
		e.page(v.NewRoot)
		e.u32(v.NewHeight)
		e.u64(v.NewEpoch)
	case Checkpoint:
		e.u32(uint32(len(v.ActiveTxns)))
		for _, t := range v.ActiveTxns {
			e.u64(t.ID)
			e.u64(t.LastLSN)
		}
		e.boolean(v.Reorg.HasUnit)
		e.u64(v.Reorg.Unit)
		e.u64(v.Reorg.BeginLSN)
		e.u64(v.Reorg.LastLSN)
		e.boolean(v.Reorg.HasLK)
		e.bytes(v.Reorg.LK)
		e.u64(v.NextTxnID)
		e.u64(v.RedoLSN)
	case Split:
		e.page(v.Left)
		e.page(v.Right)
		e.u32(v.Level)
		e.bytes(v.Sep)
		e.byteSlices(v.Moved)
		e.page(v.RightNext)
		e.page(v.NextPage)
		e.page(v.Base)
		e.bytes(v.BaseOldKey)
		e.bytes(v.BaseNewKey)
	case RootSplit:
		e.page(v.Root)
		e.page(v.Low)
		e.page(v.High)
		e.u32(v.Level)
		e.bytes(v.Sep)
		e.byteSlices(v.LowCells)
		e.byteSlices(v.HiCells)
	case BaselineBegin:
		e.u64(v.Seq)
		e.pages(v.Pages)
		e.byteSlices(v.Images)
	case BaselineEnd:
		e.u64(v.Seq)
		e.pages(v.Pages)
		e.byteSlices(v.Images)
	case FreeChain:
		e.page(v.Survivor)
		e.bytes(v.EntryKey)
		e.pages(v.Dealloc)
		e.page(v.Leaf)
		e.page(v.PrevLeaf)
		e.page(v.NextLeaf)
	default:
		panic(fmt.Sprintf("wal: cannot encode %T", r))
	}
	return e.b
}

// Decode parses a record produced by Encode.
func Decode(b []byte) (Record, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("wal: empty record")
	}
	d := &dec{b: b}
	typ := Type(d.u8())
	var r Record
	switch typ {
	case TTxnBegin:
		r = TxnBegin{Txn: d.u64()}
	case TTxnCommit:
		r = TxnCommit{Txn: d.u64(), PrevLSN: d.u64()}
	case TTxnAbort:
		r = TxnAbort{Txn: d.u64(), PrevLSN: d.u64()}
	case TTxnEnd:
		r = TxnEnd{Txn: d.u64(), PrevLSN: d.u64()}
	case TUpdate:
		r = Update{Txn: d.u64(), PrevLSN: d.u64(), Page: d.page(),
			Op: Op(d.u8()), Key: d.bytesv(), OldVal: d.bytesv(), NewVal: d.bytesv()}
	case TCLR:
		r = CLR{Txn: d.u64(), UndoNext: d.u64(), Page: d.page(),
			Op: Op(d.u8()), Key: d.bytesv(), NewVal: d.bytesv()}
	case TReorgBegin:
		r = ReorgBegin{Unit: d.u64(), RType: ReorgType(d.u8()),
			BasePages: d.pagesv(), LeafPages: d.pagesv(), Dest: d.page(),
			NewPlace: d.boolean(), Preds: d.pagesv(), Succs: d.pagesv()}
	case TReorgMove:
		r = ReorgMove{Unit: d.u64(), PrevLSN: d.u64(), Org: d.page(),
			Dest: d.page(), Full: d.boolean(), Records: d.byteSlices()}
	case TReorgSwap:
		r = ReorgSwap{Unit: d.u64(), PrevLSN: d.u64(), PageA: d.page(),
			PageB: d.page(), ImageA: d.bytesv()}
	case TReorgModify:
		m := ReorgModify{Unit: d.u64(), PrevLSN: d.u64(), Base: d.page(),
			Removes: d.byteSlices()}
		nr := int(d.u32())
		for i := 0; i < nr && d.err == nil; i++ {
			m.Replaces = append(m.Replaces, IndexReplace{
				OldKey: d.bytesv(), NewKey: d.bytesv(), NewChild: d.page()})
		}
		ni := int(d.u32())
		for i := 0; i < ni && d.err == nil; i++ {
			m.Inserts = append(m.Inserts, IndexEntry{Key: d.bytesv(), Child: d.page()})
		}
		r = m
	case TReorgEnd:
		r = ReorgEnd{Unit: d.u64(), PrevLSN: d.u64(), LargestKey: d.bytesv()}
	case TAlloc:
		r = Alloc{Page: d.page(), Typ: storage.PageType(d.u16()), Aux: d.u32()}
	case TDealloc:
		r = Dealloc{Page: d.page()}
	case TStableKey:
		r = StableKey{Key: d.bytesv(), NewRoot: d.page(), NewHeight: d.u32()}
	case TSwitchRoot:
		r = SwitchRoot{OldRoot: d.page(), NewRoot: d.page(),
			NewHeight: d.u32(), NewEpoch: d.u64()}
	case TCheckpoint:
		c := Checkpoint{}
		n := int(d.u32())
		for i := 0; i < n && d.err == nil; i++ {
			c.ActiveTxns = append(c.ActiveTxns, TxnInfo{ID: d.u64(), LastLSN: d.u64()})
		}
		c.Reorg.HasUnit = d.boolean()
		c.Reorg.Unit = d.u64()
		c.Reorg.BeginLSN = d.u64()
		c.Reorg.LastLSN = d.u64()
		c.Reorg.HasLK = d.boolean()
		c.Reorg.LK = d.bytesv()
		c.NextTxnID = d.u64()
		c.RedoLSN = d.u64()
		r = c
	case TSplit:
		r = Split{Left: d.page(), Right: d.page(), Level: d.u32(),
			Sep: d.bytesv(), Moved: d.byteSlices(), RightNext: d.page(),
			NextPage: d.page(), Base: d.page(), BaseOldKey: d.bytesv(),
			BaseNewKey: d.bytesv()}
	case TRootSplit:
		r = RootSplit{Root: d.page(), Low: d.page(), High: d.page(),
			Level: d.u32(), Sep: d.bytesv(), LowCells: d.byteSlices(),
			HiCells: d.byteSlices()}
	case TFreeChain:
		r = FreeChain{Survivor: d.page(), EntryKey: d.bytesv(),
			Dealloc: d.pagesv(), Leaf: d.page(), PrevLeaf: d.page(),
			NextLeaf: d.page()}
	case TBaselineBegin:
		r = BaselineBegin{Seq: d.u64(), Pages: d.pagesv(), Images: d.byteSlices()}
	case TBaselineEnd:
		r = BaselineEnd{Seq: d.u64(), Pages: d.pagesv(), Images: d.byteSlices()}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", typ)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}
