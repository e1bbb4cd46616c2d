// Package kv defines the cell formats stored in slotted pages and the
// key-ordered search primitives over them. Leaf cells hold (key, value)
// records; index cells hold (key, child) entries in the paper's
// "internal node with n keys has n children" variant. Keys are opaque
// byte strings ordered by bytes.Compare.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// Compare orders two keys (bytes.Compare semantics).
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// MaxKeySize bounds key length so any record fits well inside a page.
const MaxKeySize = 64

// EncodeLeafCell encodes a (key, value) record.
// Layout: u16 keyLen | key | value.
func EncodeLeafCell(key, val []byte) []byte {
	return AppendLeafCell(make([]byte, 0, 2+len(key)+len(val)), key, val)
}

// AppendLeafCell appends the leaf-cell encoding of (key, val) to dst
// and returns the extended slice. Hot loops reuse dst across records
// (page inserts copy the cell), so the encode allocates only on growth.
func AppendLeafCell(dst, key, val []byte) []byte {
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(key)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	return append(dst, val...)
}

// DecodeLeafCell splits a leaf cell into key and value. The returned
// slices alias the cell.
func DecodeLeafCell(cell []byte) (key, val []byte) {
	kl := int(binary.LittleEndian.Uint16(cell))
	return cell[2 : 2+kl], cell[2+kl:]
}

// EncodeIndexCell encodes a (key, child) index entry.
// Layout: u16 keyLen | key | u32 child.
func EncodeIndexCell(key []byte, child storage.PageID) []byte {
	cell := make([]byte, 2+len(key)+4)
	binary.LittleEndian.PutUint16(cell, uint16(len(key)))
	copy(cell[2:], key)
	binary.LittleEndian.PutUint32(cell[2+len(key):], uint32(child))
	return cell
}

// DecodeIndexCell splits an index cell into key and child pointer.
func DecodeIndexCell(cell []byte) (key []byte, child storage.PageID) {
	kl := int(binary.LittleEndian.Uint16(cell))
	return cell[2 : 2+kl], storage.PageID(binary.LittleEndian.Uint32(cell[2+kl:]))
}

// CellKey returns the key of a cell on a page of the given type.
func CellKey(typ storage.PageType, cell []byte) []byte {
	kl := int(binary.LittleEndian.Uint16(cell))
	return cell[2 : 2+kl]
}

// SlotKey returns the key stored at slot i of p.
func SlotKey(p storage.Page, i int) []byte {
	return CellKey(p.Type(), p.Cell(i))
}

// Below this many remaining slots the prefix binary search switches to
// a linear sweep over the slot directory: the entries are contiguous
// 8-byte records, so a short scan beats the branch mispredictions of
// the final bisection steps.
const linearCutoff = 8

// Search finds key in the key-ordered page p. It returns the slot where
// key is (found = true) or where it would be inserted (found = false).
//
// The hot path never decodes cells: it bisects the contiguous slot
// directory comparing stored uint32 key prefixes (taken at the page's
// PrefixSkip) and touches key bytes only on prefix ties. Keys that
// diverge from the page's shared stem inside the skip region cannot use
// the prefix order; they resolve in O(1) (above the stem: past the end)
// or with a short full-compare scan over the leading short-key region
// (below the stem: at most the stem-prefix keys, typically just the ""
// low mark).
//
//vet:hotpath -- every descent level runs one Search; zero allocations
func Search(p storage.Page, key []byte) (slot int, found bool) {
	n := p.NumSlots()
	if n == 0 {
		return 0, false
	}
	skip := p.PrefixSkip()
	if skip > 0 {
		last := SlotKey(p, n-1)
		if len(last) < skip {
			// Deletions can strand a header skip longer than every
			// remaining key; all stored prefixes are zero then, which
			// is exactly their value at the clamped skip.
			skip = len(last)
		}
		m := len(key)
		if m > skip {
			m = skip
		}
		if c := bytes.Compare(key[:m], last[:m]); c > 0 {
			return n, false // above every stem-sharing key
		} else if c < 0 || m < skip {
			// Below the stem (or a proper prefix of it): the key lands
			// in the short-key region at the front of the page.
			for i := 0; i < n; i++ {
				switch c := Compare(SlotKey(p, i), key); {
				case c < 0:
					continue
				case c > 0:
					return i, false
				default:
					return i, true
				}
			}
			return n, false
		}
	}
	target := storage.KeyPrefix(key, skip)
	lo, hi := 0, n
	for hi-lo > linearCutoff {
		mid := int(uint(lo+hi) >> 1)
		if pre := p.SlotPrefix(mid); pre < target {
			lo = mid + 1
		} else if pre > target {
			hi = mid
		} else if c := Compare(SlotKey(p, mid), key); c < 0 {
			lo = mid + 1
		} else if c > 0 {
			hi = mid
		} else {
			return mid, true
		}
	}
	for ; lo < hi; lo++ {
		if pre := p.SlotPrefix(lo); pre < target {
			continue
		} else if pre > target {
			return lo, false
		}
		if c := Compare(SlotKey(p, lo), key); c >= 0 {
			return lo, c == 0
		}
	}
	return lo, false
}

// Separator returns the shortest key s with left < s <= right, where
// left < right: the minimal prefix of right that still separates the
// two. Internal pages store separators, not full keys, so truncation
// raises fan-out and shrinks split/MOVE log records. The result is
// freshly allocated and safe to retain.
func Separator(left, right []byte) []byte {
	i := 0
	for i < len(left) && i < len(right) && left[i] == right[i] {
		i++
	}
	if i < len(right) {
		return append([]byte(nil), right[:i+1]...)
	}
	// right <= left: caller violated the precondition; fall back to a
	// copy of right rather than fabricating an out-of-range key.
	return append([]byte(nil), right...)
}

// ChildFor returns the child pointer an internal page routes key to:
// the entry with the largest key <= key. Keys below the first entry
// route to the first child (the paper's low-mark convention). Returns
// the slot used as well. A page with no entries returns InvalidPage.
func ChildFor(p storage.Page, key []byte) (storage.PageID, int) {
	n := p.NumSlots()
	if n == 0 {
		return storage.InvalidPage, -1
	}
	slot, found := Search(p, key)
	if !found {
		slot--
	}
	if slot < 0 {
		slot = 0
	}
	_, child := DecodeIndexCell(p.Cell(slot))
	return child, slot
}

// LeafInsert inserts (key, val) at the correct slot. It fails with
// storage.ErrPageFull when the record does not fit and with ErrExists
// when the key is already present.
func LeafInsert(p storage.Page, key, val []byte) error {
	slot, found := Search(p, key)
	if found {
		return fmt.Errorf("kv: key %q: %w", key, ErrExists)
	}
	return p.InsertCell(slot, EncodeLeafCell(key, val))
}

// ErrExists reports a duplicate-key insert.
var ErrExists = fmt.Errorf("key exists")

// ErrNotFound reports a missing key.
var ErrNotFound = fmt.Errorf("key not found")

// LeafDelete removes key from the page.
func LeafDelete(p storage.Page, key []byte) error {
	slot, found := Search(p, key)
	if !found {
		return fmt.Errorf("kv: key %q: %w", key, ErrNotFound)
	}
	return p.DeleteCell(slot)
}

// LeafGet returns the value for key. The slice aliases the page.
func LeafGet(p storage.Page, key []byte) ([]byte, bool) {
	slot, found := Search(p, key)
	if !found {
		return nil, false
	}
	_, val := DecodeLeafCell(p.Cell(slot))
	return val, true
}

// LeafReplace overwrites the value for an existing key.
func LeafReplace(p storage.Page, key, val []byte) error {
	slot, found := Search(p, key)
	if !found {
		return fmt.Errorf("kv: key %q: %w", key, ErrNotFound)
	}
	return p.ReplaceCell(slot, EncodeLeafCell(key, val))
}

// IndexInsert inserts a (key, child) entry at the correct slot.
func IndexInsert(p storage.Page, key []byte, child storage.PageID) error {
	slot, found := Search(p, key)
	if found {
		return fmt.Errorf("kv: index key %q: %w", key, ErrExists)
	}
	return p.InsertCell(slot, EncodeIndexCell(key, child))
}

// IndexDelete removes the entry with exactly this key.
func IndexDelete(p storage.Page, key []byte) error {
	slot, found := Search(p, key)
	if !found {
		return fmt.Errorf("kv: index key %q: %w", key, ErrNotFound)
	}
	return p.DeleteCell(slot)
}

// IndexReplace rewrites the entry oldKey -> (newKey, newChild). oldKey
// and newKey may be equal (pointer-only change). The entry must keep
// its ordering position or be re-inserted; IndexReplace handles both.
func IndexReplace(p storage.Page, oldKey, newKey []byte, newChild storage.PageID) error {
	slot, found := Search(p, oldKey)
	if !found {
		return fmt.Errorf("kv: index key %q: %w", oldKey, ErrNotFound)
	}
	if Compare(oldKey, newKey) == 0 {
		return p.ReplaceCell(slot, EncodeIndexCell(newKey, newChild))
	}
	if err := p.DeleteCell(slot); err != nil {
		return err
	}
	return IndexInsert(p, newKey, newChild)
}

// LowMark returns the smallest key on the page (slot 0), or nil for an
// empty page. For base pages this is the paper's low-mark key.
func LowMark(p storage.Page) []byte {
	if p.NumSlots() == 0 {
		return nil
	}
	return SlotKey(p, 0)
}

// Verify checks that the page's cells are strictly key-ordered.
func Verify(p storage.Page) error {
	for i := 1; i < p.NumSlots(); i++ {
		if Compare(SlotKey(p, i-1), SlotKey(p, i)) >= 0 {
			return fmt.Errorf("kv: page %d slots %d,%d out of order", p.ID(), i-1, i)
		}
	}
	return nil
}
