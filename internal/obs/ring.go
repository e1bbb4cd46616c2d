package obs

import (
	"sync/atomic"
	"time"
)

// EventType names one kind of trace event. The set is fixed and small:
// events are binary (16 bytes of payload), not strings, so emitting is
// allocation-free and the ring's memory footprint is exact.
type EventType uint8

// Trace event types. A and B carry type-specific payload.
const (
	EvNone            EventType = iota
	EvReorgUnitStart            // A=unit id, B=unit kind (see core)
	EvReorgUnitEnd              // A=unit id, B=duration ns
	EvForgo                     // A=owner id, B=resource id (page)
	EvDeadlockVictim            // A=victim owner id, B=resource id
	EvGroupFlush                // A=bytes forced, B=forces saved so far
	EvWALRotate                 // A=segments created, B=segments live
	EvWALTruncate               // A=segments deleted, B=new base LSN
	EvPageEvict                 // A=page id, B=1 if the victim was dirty
	EvRecoveryRedo              // A=records redone, B=redo start LSN
	EvRecoveryUndo              // A=loser txns rolled back
	EvRecoveryForward           // A=unit id forward-completed (0 = none)
	EvCheckpoint                // A=checkpoint LSN, B=log bytes truncated
	EvLeafSplit                 // A=left leaf page id, B=right leaf page id
	EvLeafFree                  // A=freed leaf page id

	numEventTypes
)

// String names the event type for dumps.
func (t EventType) String() string {
	switch t {
	case EvReorgUnitStart:
		return "reorg.unit.start"
	case EvReorgUnitEnd:
		return "reorg.unit.end"
	case EvForgo:
		return "lock.forgo"
	case EvDeadlockVictim:
		return "lock.deadlock.victim"
	case EvGroupFlush:
		return "wal.group.flush"
	case EvWALRotate:
		return "wal.segment.rotate"
	case EvWALTruncate:
		return "wal.truncate"
	case EvPageEvict:
		return "pool.evict"
	case EvRecoveryRedo:
		return "recovery.redo"
	case EvRecoveryUndo:
		return "recovery.undo"
	case EvRecoveryForward:
		return "recovery.forward"
	case EvCheckpoint:
		return "checkpoint"
	case EvLeafSplit:
		return "leaf.split"
	case EvLeafFree:
		return "leaf.free"
	default:
		return "none"
	}
}

// Event is one decoded trace entry.
type Event struct {
	TS   int64     `json:"ts_unix_nano"`
	Seq  uint64    `json:"seq"`
	Type EventType `json:"-"`
	Name string    `json:"type"`
	A    uint64    `json:"a"`
	B    uint64    `json:"b"`
}

// ringSlot holds one event with every field atomic, so concurrent
// writers lapping each other and concurrent snapshot readers are races
// on atomics only. seq doubles as the slot's seqlock: 0 while a writer
// is mid-publish, ticket+1 once the payload is complete.
type ringSlot struct {
	seq atomic.Uint64
	ts  atomic.Int64
	typ atomic.Uint32
	a   atomic.Uint64
	b   atomic.Uint64
}

// Ring is a lock-free fixed-capacity event ring. Writers claim a
// ticket with one atomic increment and publish into the slot the
// ticket maps to; when the ring is full the oldest events are
// overwritten. Snapshot returns the surviving window. A writer that is
// lapped mid-publish yields a torn slot, which the per-slot seqlock
// detects and drops — the ring prefers losing one event to blocking a
// hot path.
type Ring struct {
	slots  []ringSlot
	mask   uint64
	pos    atomic.Uint64
	counts [numEventTypes]atomic.Uint64
}

// DefaultTraceCap is the default ring capacity (events).
const DefaultTraceCap = 4096

// NewRing returns a ring holding capacity events (rounded up to a
// power of two; 0 selects DefaultTraceCap).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]ringSlot, n), mask: uint64(n - 1)}
}

// Emit appends one event. Wait-free: one fetch-add claims the ticket,
// five atomic stores publish the payload.
//
//vet:hotpath -- events are emitted under pool shard mutexes and inside the descent's forgo path; Emit must not allocate, lock, or block
func (r *Ring) Emit(t EventType, a, b uint64) {
	tk := r.pos.Add(1) - 1
	s := &r.slots[tk&r.mask]
	s.seq.Store(0) // invalidate while mid-publish
	s.ts.Store(time.Now().UnixNano())
	s.typ.Store(uint32(t))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(tk + 1)
	r.counts[t].Add(1)
}

// Emitted returns the total number of events ever emitted (including
// those already overwritten).
func (r *Ring) Emitted() uint64 { return r.pos.Load() }

// Count returns how many events of type t were ever emitted.
func (r *Ring) Count(t EventType) uint64 { return r.counts[t].Load() }

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Since decodes the events emitted at or after the given cursor (a
// ticket previously returned by Since or Emitted), oldest first, and
// returns the next cursor. Events the ring has already overwritten are
// silently lost — the second return value always advances to the
// current write position, so a slow reader skips ahead rather than
// re-reading stale slots. This is the daemon's incremental delta feed:
// each tick reads only what happened since the last one.
func (r *Ring) Since(cursor uint64) ([]Event, uint64) {
	end := r.pos.Load()
	start := cursor
	if end > uint64(len(r.slots)) && start < end-uint64(len(r.slots)) {
		start = end - uint64(len(r.slots))
	}
	if start >= end {
		return nil, end
	}
	out := make([]Event, 0, end-start)
	for tk := start; tk < end; tk++ {
		s := &r.slots[tk&r.mask]
		if s.seq.Load() != tk+1 {
			continue
		}
		ev := Event{
			TS:   s.ts.Load(),
			Seq:  tk,
			Type: EventType(s.typ.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
		}
		if s.seq.Load() != tk+1 {
			continue // overwritten while reading: drop the torn view
		}
		if ev.Type >= numEventTypes {
			continue
		}
		ev.Name = ev.Type.String()
		out = append(out, ev)
	}
	return out, end
}

// Snapshot decodes the surviving event window, oldest first. Slots a
// concurrent writer is mid-publishing (or has torn by lapping) fail
// their seqlock check and are skipped.
func (r *Ring) Snapshot() []Event {
	end := r.pos.Load()
	start := uint64(0)
	if end > uint64(len(r.slots)) {
		start = end - uint64(len(r.slots))
	}
	out := make([]Event, 0, end-start)
	for tk := start; tk < end; tk++ {
		s := &r.slots[tk&r.mask]
		if s.seq.Load() != tk+1 {
			continue
		}
		ev := Event{
			TS:   s.ts.Load(),
			Seq:  tk,
			Type: EventType(s.typ.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
		}
		if s.seq.Load() != tk+1 {
			continue // overwritten while reading: drop the torn view
		}
		if ev.Type >= numEventTypes {
			continue
		}
		ev.Name = ev.Type.String()
		out = append(out, ev)
	}
	return out
}
