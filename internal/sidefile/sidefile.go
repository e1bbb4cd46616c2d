// Package sidefile implements the side file of §7.2: an append-only
// system table that captures base-page entry changes made while the
// reorganizer rebuilds the internal levels. Updaters append under an IX
// table lock plus a record lock; the reorganizer drains it (deleting
// each entry as it is applied) and finally X-locks the table to freeze
// base pages for the switch.
package sidefile

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Entry is one captured base-page change, replayed against the new
// tree's base pages by key.
type Entry struct {
	Seq   uint64
	Op    wal.Op // OpInsert or OpDelete of a base entry
	Key   []byte // base entry key (leaf low mark / separator)
	Child storage.PageID
}

// encodeEntry packs an entry as a leaf cell: key = 8-byte big-endian
// sequence number (keeps entries in append order), value = op payload.
func encodeEntry(e Entry) (cellKey, cellVal []byte) {
	cellKey = make([]byte, 8)
	binary.BigEndian.PutUint64(cellKey, e.Seq)
	cellVal = make([]byte, 1+2+len(e.Key)+4)
	cellVal[0] = byte(e.Op)
	binary.LittleEndian.PutUint16(cellVal[1:], uint16(len(e.Key)))
	copy(cellVal[3:], e.Key)
	binary.LittleEndian.PutUint32(cellVal[3+len(e.Key):], uint32(e.Child))
	return cellKey, cellVal
}

func decodeEntry(cellKey, cellVal []byte) Entry {
	e := Entry{Seq: binary.BigEndian.Uint64(cellKey), Op: wal.Op(cellVal[0])}
	kl := int(binary.LittleEndian.Uint16(cellVal[1:]))
	e.Key = append([]byte(nil), cellVal[3:3+kl]...)
	e.Child = storage.PageID(binary.LittleEndian.Uint32(cellVal[3+kl:]))
	return e
}

// SideFile is the table. Appends are logged (redo protected); drains
// delete entries as they are applied, also logged.
type SideFile struct {
	pager *storage.Pager
	log   *wal.Log
	locks *lock.Manager

	mu      sync.Mutex
	head    storage.PageID
	tail    storage.PageID
	nextSeq uint64
	pending int
}

// Create allocates the head page of a new side file.
func Create(pager *storage.Pager, log *wal.Log, locks *lock.Manager) (*SideFile, error) {
	f, err := pager.AllocateEnd(storage.PageSideFile)
	if err != nil {
		return nil, err
	}
	id := f.ID()
	lsn := log.Append(wal.Alloc{Page: id, Typ: storage.PageSideFile})
	f.Lock()
	f.Data().SetLSN(lsn)
	f.Unlock()
	pager.MarkDirty(f, lsn)
	pager.Unfix(f)
	return &SideFile{pager: pager, log: log, locks: locks,
		head: id, tail: id, nextSeq: 1}, nil
}

// Open reconstructs side-file state from its page chain (restart).
func Open(pager *storage.Pager, log *wal.Log, locks *lock.Manager, head storage.PageID) (*SideFile, error) {
	s := &SideFile{pager: pager, log: log, locks: locks, head: head,
		tail: head, nextSeq: 1}
	if head == storage.InvalidPage {
		return nil, fmt.Errorf("sidefile: open with no head page")
	}
	for id := head; id != storage.InvalidPage; {
		f, err := pager.Fix(id)
		if err != nil {
			return nil, err
		}
		f.RLock()
		n := f.Data().NumSlots()
		s.pending += n
		for i := 0; i < n; i++ {
			seq := binary.BigEndian.Uint64(kv.SlotKey(f.Data(), i))
			if seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
		next := f.Data().Next()
		f.RUnlock()
		pager.Unfix(f)
		s.tail = id
		id = next
	}
	return s, nil
}

// Head returns the first page of the chain (stored in the anchor).
func (s *SideFile) Head() storage.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// Pending returns the number of unapplied entries.
func (s *SideFile) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Append adds one entry under the caller's (already acquired) IX table
// lock. It takes the record-level X lock on the entry key itself
// (§7.2), logs the insert, and applies it.
func (s *SideFile) Append(owner uint64, op wal.Op, key []byte, child storage.PageID) error {
	if err := s.locks.Lock(owner, entryRes(key), lock.X); err != nil {
		return err
	}
	defer s.locks.Unlock(owner, entryRes(key))

	s.mu.Lock()
	defer s.mu.Unlock()
	e := Entry{Seq: s.nextSeq, Op: op, Key: key, Child: child}
	ck, cv := encodeEntry(e)

	f, err := s.pager.Fix(s.tail)
	if err != nil {
		return err
	}
	f.RLock()
	fits := f.Data().FreeSpace() >= 2+len(ck)+len(cv)
	f.RUnlock()
	if !fits {
		nf, err := s.pager.AllocateEnd(storage.PageSideFile)
		if err != nil {
			s.pager.Unfix(f)
			return err
		}
		lsn := s.log.Append(wal.Alloc{Page: nf.ID(), Typ: storage.PageSideFile})
		// Link tail -> new page (logged as a system update).
		linkLSN := s.log.Append(wal.Update{Page: s.tail, Op: wal.OpSetNext,
			NewVal: encodeChild(nf.ID())})
		f.Lock()
		f.Data().SetNext(nf.ID())
		f.Data().SetLSN(linkLSN)
		f.Unlock()
		s.pager.MarkDirty(f, linkLSN)
		nf.Lock()
		nf.Data().SetLSN(lsn)
		nf.Unlock()
		s.pager.MarkDirty(nf, lsn)
		s.pager.Unfix(f)
		f = nf
		s.tail = nf.ID()
	}
	lsn := s.log.Append(wal.Update{Page: f.ID(), Op: wal.OpInsert, Key: ck, NewVal: cv})
	f.Lock()
	err = kv.LeafInsert(f.Data(), ck, cv)
	if err == nil {
		f.Data().SetLSN(lsn)
	}
	f.Unlock()
	s.pager.MarkDirty(f, lsn)
	s.pager.Unfix(f)
	if err != nil {
		return fmt.Errorf("sidefile: append seq %d: %w", e.Seq, err)
	}
	s.nextSeq++
	s.pending++
	return nil
}

func encodeChild(id storage.PageID) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(id))
	return b[:]
}

// entryRes is the record-lock resource for an entry key.
func entryRes(key []byte) lock.Resource {
	var h uint64 = 1469598103934665603
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return lock.RecordRes(h ^ 0x5f5f)
}

// Drain applies every currently stored entry in sequence order via fn,
// deleting each applied entry (logged), and returns how many entries it
// applied. New entries appended concurrently are picked up by the next
// Drain round.
func (s *SideFile) Drain(fn func(Entry) error) (int, error) {
	applied := 0
	for {
		e, page, ok, err := s.firstEntry()
		if err != nil {
			return applied, err
		}
		if !ok {
			return applied, nil
		}
		if err := fn(e); err != nil {
			return applied, err
		}
		if err := s.deleteEntry(page, e); err != nil {
			return applied, err
		}
		applied++
	}
}

// firstEntry finds the lowest-sequence entry in the chain.
func (s *SideFile) firstEntry() (Entry, storage.PageID, bool, error) {
	s.mu.Lock()
	head := s.head
	s.mu.Unlock()
	for id := head; id != storage.InvalidPage; {
		f, err := s.pager.Fix(id)
		if err != nil {
			return Entry{}, 0, false, err
		}
		f.RLock()
		n := f.Data().NumSlots()
		var e Entry
		if n > 0 {
			e = decodeEntry(kv.SlotKey(f.Data(), 0), func() []byte {
				_, v := kv.DecodeLeafCell(f.Data().Cell(0))
				return v
			}())
		}
		next := f.Data().Next()
		f.RUnlock()
		s.pager.Unfix(f)
		if n > 0 {
			return e, id, true, nil
		}
		id = next
	}
	return Entry{}, 0, false, nil
}

// deleteEntry removes the applied entry from its page (logged).
func (s *SideFile) deleteEntry(page storage.PageID, e Entry) error {
	ck := make([]byte, 8)
	binary.BigEndian.PutUint64(ck, e.Seq)
	lsn := s.log.Append(wal.Update{Page: page, Op: wal.OpDelete, Key: ck})
	f, err := s.pager.Fix(page)
	if err != nil {
		return err
	}
	f.Lock()
	err = kv.LeafDelete(f.Data(), ck)
	if err == nil {
		f.Data().SetLSN(lsn)
	}
	f.Unlock()
	s.pager.MarkDirty(f, lsn)
	s.pager.Unfix(f)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
	return nil
}

// Destroy deallocates the whole chain once the switch is complete.
// Restart does not come through here: core.ReclaimPass3 frees whatever
// side-file pages a crash leaves by page type, so the order (tail
// first) carries no recovery meaning.
func (s *SideFile) Destroy() error {
	s.mu.Lock()
	head := s.head
	s.head, s.tail, s.pending = storage.InvalidPage, storage.InvalidPage, 0
	s.mu.Unlock()
	var chain []storage.PageID
	for id := head; id != storage.InvalidPage; {
		f, err := s.pager.Fix(id)
		if err != nil {
			return err
		}
		f.RLock()
		next := f.Data().Next()
		f.RUnlock()
		s.pager.Unfix(f)
		chain = append(chain, id)
		id = next
	}
	for i := len(chain) - 1; i >= 0; i-- {
		lsn := s.log.Append(wal.Dealloc{Page: chain[i]})
		if err := s.pager.Deallocate(chain[i], lsn); err != nil {
			return err
		}
	}
	return nil
}
