package wal

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Chunk capacities of the retained stream: they double from the first
// to the last so a short-lived log (a test, one sweep run) stays small
// and a long one allocates a megabyte at a time.
const (
	minChunkBytes = 64 << 10
	maxChunkBytes = 1 << 20
)

// chunk is one contiguous piece of the record stream.
type chunk struct {
	start uint64 // stream offset of data[0]
	data  []byte // whole records, appended in place; never reallocated
}

// stream is the retained part of the record stream — [len u32][payload]
// records back to back, addressed by absolute stream offset (LSN minus
// one) — held in chunks that are never reallocated. Appending copies
// only the new record and allocates at most one chunk, retention drops
// whole chunks, and the memory held follows the bytes retained; one
// buffer grown by doubling re-copied the whole log at every step and
// held up to twice its size. A record never spans chunks, so every
// chunk starts on a record boundary.
type stream struct {
	chunks []chunk
	end    uint64 // stream offset one past the last byte
}

// append adds one record and returns its stream offset.
func (s *stream) append(payload []byte) uint64 {
	need := 4 + len(payload)
	if n := len(s.chunks); n == 0 || cap(s.chunks[n-1].data)-len(s.chunks[n-1].data) < need {
		size := minChunkBytes
		if n > 0 {
			size = 2 * cap(s.chunks[n-1].data)
		}
		if size > maxChunkBytes {
			size = maxChunkBytes
		}
		if size < need {
			size = need
		}
		s.chunks = append(s.chunks, chunk{start: s.end, data: make([]byte, 0, size)})
	}
	c := &s.chunks[len(s.chunks)-1]
	off := s.end
	c.data = binary.LittleEndian.AppendUint32(c.data, uint32(len(payload)))
	c.data = append(c.data, payload...)
	s.end += uint64(need)
	return off
}

// from returns the retained bytes from stream offset off to the end of
// the chunk holding it: whole records when off is a record boundary.
// off must lie in [first retained offset, end).
func (s *stream) from(off uint64) []byte {
	c := s.chunks[len(s.chunks)-1] // where every force and most reads look
	if off < c.start {
		c = s.chunks[sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].start > off })-1]
	}
	return c.data[off-c.start:]
}

// record returns the payload of the record at stream offset off and the
// offset of the record after it.
func (s *stream) record(off uint64) ([]byte, uint64, error) {
	if off+4 > s.end {
		return nil, 0, fmt.Errorf("wal: LSN %d past tail", off+1)
	}
	b := s.from(off)
	n := int(binary.LittleEndian.Uint32(b))
	if 4+n > len(b) {
		return nil, 0, fmt.Errorf("wal: record at LSN %d truncated", off+1)
	}
	return b[4 : 4+n], off + uint64(4+n), nil
}

// cut discards everything at and after stream offset end, then anything
// left of a record that end split, and returns the new end: what a
// restart scan keeps of a log whose device lost the rest.
func (s *stream) cut(end uint64) uint64 {
	for n := len(s.chunks); n > 0 && s.chunks[n-1].start >= end; n-- {
		s.chunks = s.chunks[:n-1]
	}
	if n := len(s.chunks); n > 0 {
		c := &s.chunks[n-1]
		keep := c.data
		if uint64(len(keep)) > end-c.start {
			keep = keep[:end-c.start]
		}
		off := 0
		for off+4 <= len(keep) {
			r := int(binary.LittleEndian.Uint32(keep[off:]))
			if off+4+r > len(keep) {
				break
			}
			off += 4 + r
		}
		c.data = c.data[:off]
		end = c.start + uint64(off)
		if off == 0 {
			s.chunks = s.chunks[:n-1]
		}
	}
	s.end = end
	return end
}

// dropBelow releases every chunk that lies wholly below stream offset
// off. The first chunk kept may begin below off; the log refuses reads
// under its retained base, so those bytes are only unreclaimed memory.
func (s *stream) dropBelow(off uint64) {
	n := 0
	for n < len(s.chunks)-1 && s.chunks[n+1].start <= off {
		n++
	}
	if n > 0 {
		s.chunks = append([]chunk(nil), s.chunks[n:]...)
	}
}
