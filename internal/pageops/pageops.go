// Package pageops applies logged page operations to pages: the redo
// direction (with the idempotent pageLSN test) and the undo direction
// (computing and applying the compensating operation). Both transaction
// rollback and restart recovery are built on it.
//
// Operations are physiological — logical within one page, addressed by
// key — so redo does not depend on slot numbers and remains correct
// even though reorganization MOVE and SWAP records are replayed by
// recovery's careful-writing cases and by forward recovery rather than
// by this package.
package pageops

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/wal"
)

// EncodeChild encodes a child page id as an update-record value.
func EncodeChild(id storage.PageID) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(id))
	return b[:]
}

// DecodeChild decodes a child page id from an update-record value.
func DecodeChild(v []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(v))
}

// EncodeFormat encodes the payload of an OpFormat: page type and aux.
func EncodeFormat(typ storage.PageType, aux uint32) []byte {
	var b [6]byte
	binary.LittleEndian.PutUint16(b[:], uint16(typ))
	binary.LittleEndian.PutUint32(b[2:], aux)
	return b[:]
}

// DecodeFormat decodes an OpFormat payload.
func DecodeFormat(v []byte) (storage.PageType, uint32) {
	return storage.PageType(binary.LittleEndian.Uint16(v)), binary.LittleEndian.Uint32(v[2:])
}

// apply performs op on the latched page. The caller stamps the LSN.
func apply(p storage.Page, op wal.Op, key, newVal []byte) error {
	switch op {
	case wal.OpInsert:
		switch p.Type() {
		case storage.PageInternal:
			return kv.IndexInsert(p, key, DecodeChild(newVal))
		default:
			return kv.LeafInsert(p, key, newVal)
		}
	case wal.OpDelete:
		switch p.Type() {
		case storage.PageInternal:
			return kv.IndexDelete(p, key)
		default:
			return kv.LeafDelete(p, key)
		}
	case wal.OpReplace:
		switch p.Type() {
		case storage.PageInternal:
			return kv.IndexReplace(p, key, key, DecodeChild(newVal))
		default:
			return kv.LeafReplace(p, key, newVal)
		}
	case wal.OpSetNext:
		p.SetNext(DecodeChild(newVal))
		return nil
	case wal.OpSetPrev:
		p.SetPrev(DecodeChild(newVal))
		return nil
	case wal.OpFormat:
		typ, aux := DecodeFormat(newVal)
		id := p.ID()
		lsn := p.LSN()
		storage.FormatPage(p, typ, id)
		p.SetAux(aux)
		p.SetLSN(lsn)
		return nil
	default:
		return fmt.Errorf("pageops: unknown op %v", op)
	}
}

// Apply performs a logged operation on page rec.Page at lsn without the
// pageLSN test (forward processing: the caller knows the op is new).
func Apply(pg *storage.Pager, rec wal.Update, lsn uint64) error {
	f, err := pg.Fix(rec.Page)
	if err != nil {
		return err
	}
	defer pg.Unfix(f)
	f.Lock()
	defer f.Unlock()
	if err := apply(f.Data(), rec.Op, rec.Key, rec.NewVal); err != nil {
		return err
	}
	f.Data().SetLSN(lsn)
	pg.MarkDirty(f, lsn)
	return nil
}

// Redo re-applies a logged operation if and only if the page has not
// yet seen it (pageLSN < lsn), making restart redo idempotent.
func Redo(pg *storage.Pager, page storage.PageID, op wal.Op, key, newVal []byte, lsn uint64) error {
	f, err := pg.Fix(page)
	if err != nil {
		return err
	}
	defer pg.Unfix(f)
	f.Lock()
	defer f.Unlock()
	if f.Data().LSN() >= lsn {
		return nil // already applied and stable ordering known
	}
	if err := apply(f.Data(), op, key, newVal); err != nil {
		return fmt.Errorf("pageops: redo lsn %d page %d %v: %w", lsn, page, op, err)
	}
	f.Data().SetLSN(lsn)
	pg.MarkDirty(f, lsn)
	return nil
}

// Inverse computes the compensating operation for a logged update.
func Inverse(rec wal.Update) (op wal.Op, key, newVal []byte, err error) {
	switch rec.Op {
	case wal.OpInsert:
		return wal.OpDelete, rec.Key, nil, nil
	case wal.OpDelete:
		return wal.OpInsert, rec.Key, rec.OldVal, nil
	case wal.OpReplace:
		return wal.OpReplace, rec.Key, rec.OldVal, nil
	case wal.OpSetNext:
		return wal.OpSetNext, nil, rec.OldVal, nil
	case wal.OpSetPrev:
		return wal.OpSetPrev, nil, rec.OldVal, nil
	default:
		return 0, nil, nil, fmt.Errorf("pageops: op %v is not undoable", rec.Op)
	}
}

// Undo applies the compensating operation for rec, logging a CLR first
// (WAL discipline: the CLR describes the change about to be made).
// It returns the CLR's LSN.
func Undo(pg *storage.Pager, log *wal.Log, rec wal.Update) (uint64, error) {
	op, key, newVal, err := Inverse(rec)
	if err != nil {
		return 0, err
	}
	clr := wal.CLR{
		Txn:      rec.Txn,
		UndoNext: rec.PrevLSN,
		Page:     rec.Page,
		Op:       op,
		Key:      key,
		NewVal:   newVal,
	}
	lsn := log.Append(clr)
	if err := Apply(pg, wal.Update{Page: rec.Page, Op: op, Key: key, NewVal: newVal}, lsn); err != nil {
		return 0, fmt.Errorf("pageops: undo of %v on page %d: %w", rec.Op, rec.Page, err)
	}
	return lsn, nil
}
