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
	"errors"
	"fmt"
	"math"

	"repro/internal/storage"
)

// Type tags a log record.
type Type uint8

// Log record types.
const (
	TInvalid Type = iota
	// tRetiredBegin was log format 3's transaction-begin record. Format
	// 4 begins a transaction implicitly at its first update, the one
	// with PrevLSN 0; Decode refuses the byte with a RetiredTypeError.
	tRetiredBegin
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
	// tRetiredBlockBegin and tRetiredBlockEnd were the comparator's
	// block-operation records before it logged PageImages; Decode
	// refuses both bytes with a RetiredTypeError.
	tRetiredBlockBegin
	tRetiredBlockEnd
	// TUpdateCommitted is an Update with Committed set: a one-record
	// transaction logged without PrevLSN or OldVal (see Update).
	TUpdateCommitted
	TPageImages
)

func (t Type) String() string {
	names := [...]string{"invalid", "retired-begin", "txn-commit", "txn-abort",
		"txn-end", "update", "clr", "reorg-begin", "reorg-move", "reorg-swap",
		"reorg-modify", "reorg-end", "alloc", "dealloc", "stable-key",
		"switch-root", "checkpoint", "split", "root-split", "free-chain",
		"retired-block-begin", "retired-block-end", "update-committed",
		"page-images"}
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
// structure modification, never undone). There is no begin record: a
// transaction's first update has PrevLSN 0.
//
// A Committed update is a whole transaction in one record — an
// auto-commit write — and commits it as it is logged. It is redo-only:
// it is never a loser at restart, no abort can follow it, and the WAL
// rule keeps its page off the disk until the record is durable, so
// nothing ever reads a before-image or a chain for it. Its PrevLSN and
// OldVal are not logged (they decode as 0 and empty).
type Update struct {
	Txn       uint64
	PrevLSN   uint64
	Page      storage.PageID
	Op        Op
	Key       []byte
	OldVal    []byte
	NewVal    []byte
	Committed bool
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
// states. Left keeps keys < Sep; Right receives Left's cells at or
// above Sep. The record carries no cells: under careful writing (§5)
// Left's truncated image cannot reach disk before Right's, so Right is
// always rebuilt from Left's current image. For leaf splits (Level 0)
// the side pointers are rewired; Base receives the (Sep -> Right)
// entry.
type Split struct {
	Left      storage.PageID
	Right     storage.PageID
	Level     uint32
	Sep       []byte
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
// and the root becomes their parent. Like Split it carries no cells:
// the root's rewritten image waits on disk for Low's and High's.
type RootSplit struct {
	Root  storage.PageID
	Low   storage.PageID
	High  storage.PageID
	Level uint32 // level of Low/High (root becomes Level+1)
	Sep   []byte
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

// PageImages is a redo-only physical structure modification: Images[i]
// becomes the content of Pages[i], and the pages in Dealloc are freed.
// A freed page may also be imaged; its image is logged but never
// installed, since the page is freed instead.
type PageImages struct {
	Pages   []storage.PageID
	Images  [][]byte
	Dealloc []storage.PageID
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

func (TxnCommit) recordType() Type   { return TTxnCommit }
func (TxnAbort) recordType() Type    { return TTxnAbort }
func (TxnEnd) recordType() Type      { return TTxnEnd }
func (CLR) recordType() Type         { return TCLR }
func (ReorgBegin) recordType() Type  { return TReorgBegin }
func (ReorgMove) recordType() Type   { return TReorgMove }
func (ReorgSwap) recordType() Type   { return TReorgSwap }
func (ReorgModify) recordType() Type { return TReorgModify }
func (ReorgEnd) recordType() Type    { return TReorgEnd }
func (Alloc) recordType() Type       { return TAlloc }
func (Dealloc) recordType() Type     { return TDealloc }
func (StableKey) recordType() Type   { return TStableKey }
func (SwitchRoot) recordType() Type  { return TSwitchRoot }
func (Checkpoint) recordType() Type  { return TCheckpoint }
func (Split) recordType() Type       { return TSplit }
func (RootSplit) recordType() Type   { return TRootSplit }
func (FreeChain) recordType() Type   { return TFreeChain }
func (PageImages) recordType() Type  { return TPageImages }

func (u Update) recordType() Type {
	if u.Committed {
		return TUpdateCommitted
	}
	return TUpdate
}

// --- encoding (log format 5) ---
//
// A record is its type byte followed by its fields in declaration order
// (a Committed update leaves out PrevLSN and OldVal, and its flag is its
// type byte):
//
//   - every integer — ids, LSNs, page ids, levels, the epoch, a page's
//     type and aux word — is a uvarint;
//   - the Op, RType and bool fields are one byte each;
//   - a byte string is a uvarint length and its bytes;
//   - a page list, and a list of index entries or active transactions,
//     is a uvarint count and then its elements;
//   - a [][]byte list is front-coded: a uvarint count, then per element
//     the length of the prefix it shares with the element before it
//     (zero for the first), the length of the rest, and the rest. Sorted
//     keys and the leaf cells that start with them share their leading
//     bytes, so a keys-only MOVE logs little more than each key's last
//     digits; an unsorted list just shares less.
//
// Decode is strict and never panics: every length and count is checked
// against the bytes left before anything is allocated, and a varint too
// large for its field, a shared prefix longer than the element before
// it, or bytes left over after the last field are errors.
//
// What a round trip keeps: a decoded byte string is never nil (an empty
// one decodes as []byte{}), and a decoded list of any kind with no
// elements is nil.

// enc is an encoding in progress: each method appends one field and
// returns the extended buffer, append-style, so a caller's buffer stays
// wherever the caller put it.
type enc []byte

func (e enc) u8(v uint8) enc  { return append(e, v) }
func (e enc) uv(v uint64) enc { return binary.AppendUvarint(e, v) }
func (e enc) boolean(v bool) enc {
	if v {
		return e.u8(1)
	}
	return e.u8(0)
}
func (e enc) page(p storage.PageID) enc { return e.uv(uint64(p)) }
func (e enc) bytes(b []byte) enc        { return append(e.uv(uint64(len(b))), b...) }
func (e enc) pages(ps []storage.PageID) enc {
	e = e.uv(uint64(len(ps)))
	for _, p := range ps {
		e = e.page(p)
	}
	return e
}

// list front-codes bs, each element against the one before it.
func (e enc) list(bs [][]byte) enc {
	e = e.uv(uint64(len(bs)))
	var prev []byte
	for _, b := range bs {
		n := sharedPrefix(prev, b)
		e = e.uv(uint64(n)).bytes(b[n:])
		prev = b
	}
	return e
}

// sharedPrefix returns the length of the longest common prefix of a and b.
func sharedPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// maxListBytes bounds what one decoded [][]byte list may hold. Front
// coding lets a short record name long elements — an element equal to
// the one before it costs two or three bytes whatever its length — so
// without a bound a few kilobytes of hostile log could make Decode
// allocate gigabytes. The largest list any writer logs is a PageImages
// record's images: the comparator's block operation, at most eight
// pages of at most 64 KiB.
const maxListBytes = 16 << 20

// RetiredTypeError is Decode's error for a type byte an older log
// format, or an older build of this one, wrote and this build never
// does.
type RetiredTypeError struct{ Type Type }

func (e *RetiredTypeError) Error() string {
	return fmt.Sprintf("wal: record type %d (%v) is retired: log format %d does not write it", uint8(e.Type), e.Type, segVersion)
}

var (
	errTruncated = errors.New("wal: truncated record")
	errOverflow  = errors.New("wal: varint too large for its field")
)

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) left() int { return len(d.b) - d.off }

func (d *dec) u8() uint8 {
	if d.err != nil || d.left() < 1 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// uv reads a uvarint no larger than limit.
func (d *dec) uv(limit uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.fail(errTruncated)
		return 0
	case n < 0 || v > limit:
		d.fail(errOverflow)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) u64() uint64          { return d.uv(math.MaxUint64) }
func (d *dec) u32() uint32          { return uint32(d.uv(math.MaxUint32)) }
func (d *dec) page() storage.PageID { return storage.PageID(d.u32()) }
func (d *dec) boolean() bool {
	v := d.u8()
	if v > 1 {
		d.fail(fmt.Errorf("wal: bool byte %d", v))
	}
	return v == 1
}

// count reads a length or element count whose elements take at least
// per bytes each, refusing one the bytes left cannot hold.
func (d *dec) count(per int) int {
	v := d.u64()
	if d.err == nil && v > uint64(d.left()/per) {
		d.fail(errTruncated)
		return 0
	}
	return int(v)
}

func (d *dec) bytesv() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	v := make([]byte, n)
	d.off += copy(v, d.b[d.off:])
	return v
}

func (d *dec) pagesv() []storage.PageID {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]storage.PageID, n)
	for i := range out {
		out[i] = d.page()
	}
	return out
}

// list decodes a front-coded list, each element its shared prefix
// copied from the element before it followed by its own suffix.
func (d *dec) list() [][]byte {
	n := d.count(2)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([][]byte, n)
	var prev []byte
	total := 0
	for i := range out {
		shared := d.u64()
		if d.err == nil && shared > uint64(len(prev)) {
			d.fail(fmt.Errorf("wal: front-coded prefix %d longer than the %d-byte element before it", shared, len(prev)))
		}
		suffix := d.count(1)
		if d.err != nil {
			return nil
		}
		if total += int(shared) + suffix; total > maxListBytes {
			d.fail(fmt.Errorf("wal: list decodes to more than %d bytes", maxListBytes))
			return nil
		}
		e := make([]byte, int(shared)+suffix)
		copy(e, prev[:shared])
		d.off += copy(e[shared:], d.b[d.off:d.off+suffix])
		out[i], prev = e, e
	}
	return out
}

// Encode serialises a record in the log's format.
func Encode(r Record) []byte { return appendRecord(nil, r) }

// appendRecord appends r's encoding to dst and returns the extended
// slice. It keeps no reference to r, so a record built at a call to
// Log.Append can stay on the caller's stack; that is why every case
// writes its own type byte — calling r.recordType() through the
// interface, or formatting r, would move r to the heap.
func appendRecord(dst []byte, r Record) []byte {
	e := enc(dst)
	switch v := r.(type) {
	case TxnCommit:
		e = e.u8(uint8(TTxnCommit)).uv(v.Txn).uv(v.PrevLSN)
	case TxnAbort:
		e = e.u8(uint8(TTxnAbort)).uv(v.Txn).uv(v.PrevLSN)
	case TxnEnd:
		e = e.u8(uint8(TTxnEnd)).uv(v.Txn).uv(v.PrevLSN)
	case Update:
		if v.Committed {
			e = e.u8(uint8(TUpdateCommitted)).uv(v.Txn).page(v.Page).u8(uint8(v.Op)).
				bytes(v.Key).bytes(v.NewVal)
			break
		}
		e = e.u8(uint8(TUpdate)).uv(v.Txn).uv(v.PrevLSN).page(v.Page).u8(uint8(v.Op)).
			bytes(v.Key).bytes(v.OldVal).bytes(v.NewVal)
	case CLR:
		e = e.u8(uint8(TCLR)).uv(v.Txn).uv(v.UndoNext).page(v.Page).u8(uint8(v.Op)).
			bytes(v.Key).bytes(v.NewVal)
	case ReorgBegin:
		e = e.u8(uint8(TReorgBegin)).uv(v.Unit).u8(uint8(v.RType)).
			pages(v.BasePages).pages(v.LeafPages).page(v.Dest).boolean(v.NewPlace).
			pages(v.Preds).pages(v.Succs)
	case ReorgMove:
		e = e.u8(uint8(TReorgMove)).uv(v.Unit).uv(v.PrevLSN).page(v.Org).page(v.Dest).
			boolean(v.Full).list(v.Records)
	case ReorgSwap:
		e = e.u8(uint8(TReorgSwap)).uv(v.Unit).uv(v.PrevLSN).page(v.PageA).page(v.PageB).
			bytes(v.ImageA)
	case ReorgModify:
		e = e.u8(uint8(TReorgModify)).uv(v.Unit).uv(v.PrevLSN).page(v.Base).list(v.Removes)
		e = e.uv(uint64(len(v.Replaces)))
		for _, r := range v.Replaces {
			e = e.bytes(r.OldKey).bytes(r.NewKey).page(r.NewChild)
		}
		e = e.uv(uint64(len(v.Inserts)))
		for _, in := range v.Inserts {
			e = e.bytes(in.Key).page(in.Child)
		}
	case ReorgEnd:
		e = e.u8(uint8(TReorgEnd)).uv(v.Unit).uv(v.PrevLSN).bytes(v.LargestKey)
	case Alloc:
		e = e.u8(uint8(TAlloc)).page(v.Page).uv(uint64(v.Typ)).uv(uint64(v.Aux))
	case Dealloc:
		e = e.u8(uint8(TDealloc)).page(v.Page)
	case StableKey:
		e = e.u8(uint8(TStableKey)).bytes(v.Key).page(v.NewRoot).uv(uint64(v.NewHeight))
	case SwitchRoot:
		e = e.u8(uint8(TSwitchRoot)).page(v.OldRoot).page(v.NewRoot).
			uv(uint64(v.NewHeight)).uv(v.NewEpoch)
	case Checkpoint:
		e = e.u8(uint8(TCheckpoint)).uv(uint64(len(v.ActiveTxns)))
		for _, t := range v.ActiveTxns {
			e = e.uv(t.ID).uv(t.LastLSN)
		}
		e = e.boolean(v.Reorg.HasUnit).uv(v.Reorg.Unit).uv(v.Reorg.BeginLSN).
			uv(v.Reorg.LastLSN).boolean(v.Reorg.HasLK).bytes(v.Reorg.LK).
			uv(v.NextTxnID).uv(v.RedoLSN)
	case Split:
		e = e.u8(uint8(TSplit)).page(v.Left).page(v.Right).uv(uint64(v.Level)).
			bytes(v.Sep).page(v.RightNext).page(v.NextPage).page(v.Base).
			bytes(v.BaseOldKey).bytes(v.BaseNewKey)
	case RootSplit:
		e = e.u8(uint8(TRootSplit)).page(v.Root).page(v.Low).page(v.High).
			uv(uint64(v.Level)).bytes(v.Sep)
	case PageImages:
		e = e.u8(uint8(TPageImages)).pages(v.Pages).list(v.Images).pages(v.Dealloc)
	case FreeChain:
		e = e.u8(uint8(TFreeChain)).page(v.Survivor).bytes(v.EntryKey).
			pages(v.Dealloc).page(v.Leaf).page(v.PrevLeaf).page(v.NextLeaf)
	default:
		panic("wal: Encode takes a record value, not a pointer or nil")
	}
	return e
}

// Decode parses a record produced by Encode. Any other input — short,
// long, or malformed anywhere — yields an error.
func Decode(b []byte) (Record, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("wal: empty record")
	}
	d := &dec{b: b}
	typ := Type(d.u8())
	var r Record
	switch typ {
	case tRetiredBegin, tRetiredBlockBegin, tRetiredBlockEnd:
		return nil, &RetiredTypeError{Type: typ}
	case TTxnCommit:
		r = TxnCommit{Txn: d.u64(), PrevLSN: d.u64()}
	case TTxnAbort:
		r = TxnAbort{Txn: d.u64(), PrevLSN: d.u64()}
	case TTxnEnd:
		r = TxnEnd{Txn: d.u64(), PrevLSN: d.u64()}
	case TUpdate:
		r = Update{Txn: d.u64(), PrevLSN: d.u64(), Page: d.page(),
			Op: Op(d.u8()), Key: d.bytesv(), OldVal: d.bytesv(), NewVal: d.bytesv()}
	case TUpdateCommitted:
		r = Update{Txn: d.u64(), Page: d.page(), Op: Op(d.u8()), Key: d.bytesv(),
			OldVal: []byte{}, NewVal: d.bytesv(), Committed: true}
	case TCLR:
		r = CLR{Txn: d.u64(), UndoNext: d.u64(), Page: d.page(),
			Op: Op(d.u8()), Key: d.bytesv(), NewVal: d.bytesv()}
	case TReorgBegin:
		r = ReorgBegin{Unit: d.u64(), RType: ReorgType(d.u8()),
			BasePages: d.pagesv(), LeafPages: d.pagesv(), Dest: d.page(),
			NewPlace: d.boolean(), Preds: d.pagesv(), Succs: d.pagesv()}
	case TReorgMove:
		r = ReorgMove{Unit: d.u64(), PrevLSN: d.u64(), Org: d.page(),
			Dest: d.page(), Full: d.boolean(), Records: d.list()}
	case TReorgSwap:
		r = ReorgSwap{Unit: d.u64(), PrevLSN: d.u64(), PageA: d.page(),
			PageB: d.page(), ImageA: d.bytesv()}
	case TReorgModify:
		m := ReorgModify{Unit: d.u64(), PrevLSN: d.u64(), Base: d.page(),
			Removes: d.list()}
		if n := d.count(3); n > 0 {
			m.Replaces = make([]IndexReplace, n)
			for i := range m.Replaces {
				m.Replaces[i] = IndexReplace{OldKey: d.bytesv(), NewKey: d.bytesv(), NewChild: d.page()}
			}
		}
		if n := d.count(2); n > 0 {
			m.Inserts = make([]IndexEntry, n)
			for i := range m.Inserts {
				m.Inserts[i] = IndexEntry{Key: d.bytesv(), Child: d.page()}
			}
		}
		r = m
	case TReorgEnd:
		r = ReorgEnd{Unit: d.u64(), PrevLSN: d.u64(), LargestKey: d.bytesv()}
	case TAlloc:
		r = Alloc{Page: d.page(), Typ: storage.PageType(d.uv(math.MaxUint16)), Aux: d.u32()}
	case TDealloc:
		r = Dealloc{Page: d.page()}
	case TStableKey:
		r = StableKey{Key: d.bytesv(), NewRoot: d.page(), NewHeight: d.u32()}
	case TSwitchRoot:
		r = SwitchRoot{OldRoot: d.page(), NewRoot: d.page(),
			NewHeight: d.u32(), NewEpoch: d.u64()}
	case TCheckpoint:
		c := Checkpoint{}
		if n := d.count(2); n > 0 {
			c.ActiveTxns = make([]TxnInfo, n)
			for i := range c.ActiveTxns {
				c.ActiveTxns[i] = TxnInfo{ID: d.u64(), LastLSN: d.u64()}
			}
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
			Sep: d.bytesv(), RightNext: d.page(),
			NextPage: d.page(), Base: d.page(), BaseOldKey: d.bytesv(),
			BaseNewKey: d.bytesv()}
	case TRootSplit:
		r = RootSplit{Root: d.page(), Low: d.page(), High: d.page(),
			Level: d.u32(), Sep: d.bytesv()}
	case TFreeChain:
		r = FreeChain{Survivor: d.page(), EntryKey: d.bytesv(),
			Dealloc: d.pagesv(), Leaf: d.page(), PrevLeaf: d.page(),
			NextLeaf: d.page()}
	case TPageImages:
		r = PageImages{Pages: d.pagesv(), Images: d.list(), Dealloc: d.pagesv()}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", typ)
	}
	if d.err == nil && d.off != len(b) {
		d.fail(fmt.Errorf("wal: %d bytes after the end of a %v record", len(b)-d.off, typ))
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}
