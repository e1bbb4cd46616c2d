// Package obs is the tail-latency observability layer: allocation-free
// striped latency histograms with power-of-two buckets, a lock-free
// fixed-capacity event ring for typed trace events, and the gauge types
// (occupancy, fragmentation, write amplification) the autonomous
// reorganization policy will consume. Everything here is safe to call
// from the hottest paths: recording is a handful of integer operations
// and one uncontended atomic add, with no locks, no maps and no heap
// allocation (the hotalloc analyzer proves it — Record and Emit are
// //vet:hotpath roots).
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// numBuckets is the fixed bucket count: bucket 0 holds zero-duration
// samples, bucket k (k >= 1) holds durations in [2^(k-1), 2^k)
// nanoseconds. 63 doublings cover every representable duration, so the
// arrays never grow and recording never branches on capacity.
const numBuckets = 64

// numStripes spreads concurrent recorders over independent cache-line
// sets so a parallel workload's Record calls do not serialise on one
// bucket word. 16 is "CPU-ish": enough stripes that 8-16 hardware
// threads rarely collide, small enough that merge-on-snapshot stays
// trivial. Must be a power of two.
const numStripes = 16

// stripe is one recorder shard: a fixed array of atomic bucket
// counters. 64 words = 8 cache lines, so adjacent stripes never share
// a line and no explicit padding is needed.
type stripe [numBuckets]atomic.Uint64

// Histogram is a concurrency-safe latency histogram with power-of-two
// buckets. The zero value is ready to use. Writers pick a stripe from
// their own stack address (distinct goroutines live on distinct
// stacks), so recording is wait-free and allocation-free; readers merge
// all stripes into a Snapshot.
type Histogram struct {
	stripes [numStripes]stripe
}

// stripeHint derives a stripe index from the caller's stack address.
// Goroutine stacks are disjoint, so concurrent recorders spread across
// stripes; one goroutine keeps hitting the same (cache-warm) stripe.
// The pointer is only compared as an integer — it never escapes, so
// the local does not heap-allocate.
func stripeHint() uint64 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) * 0x9E3779B97F4A7C15
	return (h >> 56) & (numStripes - 1)
}

// bucketOf maps a nanosecond duration to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// Record adds one duration sample.
//
//vet:hotpath -- latency recording runs inside the point descent and the lock manager; it must never allocate or take a lock
func (h *Histogram) Record(d time.Duration) {
	h.stripes[stripeHint()][bucketOf(int64(d))].Add(1)
}

// RecordNanos adds one sample given directly in nanoseconds.
func (h *Histogram) RecordNanos(ns int64) {
	h.stripes[stripeHint()][bucketOf(ns)].Add(1)
}

// HistSnapshot is a merged, immutable view of a histogram.
type HistSnapshot struct {
	Counts [numBuckets]uint64
	Total  uint64
}

// Snapshot merges all stripes. Each counter is read atomically; the
// cross-counter view is as consistent as a running system allows.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		for b := range h.stripes[i] {
			c := h.stripes[i][b].Load()
			s.Counts[b] += c
			s.Total += c
		}
	}
	return s
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.Snapshot().Total }

// bucketBounds returns the [lo, hi) nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 1
	}
	return int64(1) << (b - 1), int64(1) << b
}

// Sub returns the histogram delta s minus prev: the samples recorded
// between the two snapshots of one histogram. Counters only grow, so
// with prev an earlier snapshot of the same histogram every per-bucket
// difference is non-negative; stale buckets saturate at zero rather
// than underflow. Quantiles of the delta are windowed quantiles — the
// daemon's per-tick foreground p99 sensor.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	var d HistSnapshot
	for b := 0; b < numBuckets; b++ {
		if s.Counts[b] > prev.Counts[b] {
			d.Counts[b] = s.Counts[b] - prev.Counts[b]
			d.Total += d.Counts[b]
		}
	}
	return d
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the recorded
// samples as a duration. Within the bucket holding the target rank the
// estimate interpolates linearly, so results are exact at bucket
// boundaries and never off by more than one power of two inside a
// bucket ("exact-ish"). Zero samples yield zero.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total-1)
	var cum float64
	for b := 0; b < numBuckets; b++ {
		c := float64(s.Counts[b])
		if c == 0 {
			continue
		}
		if rank < cum+c {
			lo, hi := bucketBounds(b)
			frac := (rank - cum + 1) / c
			if frac > 1 {
				frac = 1
			}
			return time.Duration(float64(lo) + frac*float64(hi-lo-1))
		}
		cum += c
	}
	// rank == total-1 landed past the loop due to float rounding: the
	// answer is the top of the highest occupied bucket.
	for b := numBuckets - 1; b >= 0; b-- {
		if s.Counts[b] != 0 {
			_, hi := bucketBounds(b)
			return time.Duration(hi - 1)
		}
	}
	return 0
}

// Quantile merges the stripes and extracts a quantile; shorthand for
// Snapshot().Quantile(q). Callers extracting several quantiles should
// take one Snapshot and query that instead.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Max is shorthand for Snapshot().Max().
func (h *Histogram) Max() time.Duration { return h.Snapshot().Max() }

// Max returns an upper bound on the largest recorded sample (the top
// of its bucket).
func (s HistSnapshot) Max() time.Duration {
	for b := numBuckets - 1; b >= 0; b-- {
		if s.Counts[b] != 0 {
			_, hi := bucketBounds(b)
			return time.Duration(hi - 1)
		}
	}
	return 0
}
