package main

import (
	"math/bits"
	"sort"
)

// hist is the bench's own latency histogram. It is log-linear: every
// power-of-two octave is cut into 128 equal sub-buckets, so a bucket is
// at most 1/128 of its lower bound wide and a quantile read from the
// bucket midpoint is within 0.4 % of the true sample. obs.Histogram is
// not reused because its power-of-two buckets are 2x wide: a p50 would
// move in steps ten times coarser than the 10 % regression bound
// (TestObsHistogramTooCoarse shows it failing the same oracle).
//
// Values are nanoseconds. Recording is one index computation and one
// increment, no allocation. Not safe for concurrent use: every client
// owns its histograms and they are merged after the clients stop.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values at or above 2^histMaxBits ns (18 minutes) clamp into the
	// last bucket.
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histBounds returns the lower bound and width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	return float64(uint64(i%histSub+histSub) << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in ns (0 when empty): the position of
// the ceil(q*n)-th smallest sample inside its bucket, the bucket's
// samples taken as evenly spread, so the result is not confined to a
// grid of bucket midpoints.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		if cum+c >= rank {
			lo, width := histBounds(i)
			if width == 1 {
				return lo
			}
			return lo + width*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// windowed keeps every sample in total and, beside it, the p99 of each
// quarter-second window. The windowed p99 of a run is the median of the
// window p99s, so one scheduler hiccup owns one window and not the
// figure. A window that closes with fewer than windowMinSamples samples
// is not emitted: it keeps accumulating into the next one (the merge
// rule), so every emitted p99 has at least ten samples beyond it.
type windowed struct {
	total hist
	win   hist
	end   int64 // the open window closes at this timestamp (ns)
	p99s  []float64
}

const (
	windowNanos      = int64(250e6)
	windowMinSamples = 1000
)

// record adds one sample that completed at timestamp now (ns on the
// bench's monotonic clock).
func (w *windowed) record(now, ns int64) {
	if now >= w.end {
		w.roll(now)
	}
	w.win.record(ns)
}

func (w *windowed) roll(now int64) {
	if w.end != 0 && w.win.n >= windowMinSamples {
		w.emit()
	}
	if w.end == 0 || now-w.end > 60*windowNanos {
		w.end = now
	}
	for w.end <= now {
		w.end += windowNanos
	}
}

func (w *windowed) emit() {
	w.p99s = append(w.p99s, w.win.quantile(0.99))
	w.total.merge(&w.win)
	w.win.reset()
}

// finish closes the last window. A short tail window is emitted only
// when it is the sole window; otherwise its samples stay in total and
// it contributes no p99 of its own.
func (w *windowed) finish() {
	if w.win.n >= windowMinSamples || (len(w.p99s) == 0 && w.win.n > 0) {
		w.emit()
		return
	}
	w.total.merge(&w.win)
	w.win.reset()
}

// absorb folds another client's finished recorder into this one.
func (w *windowed) absorb(o *windowed) {
	w.total.merge(&o.total)
	w.p99s = append(w.p99s, o.p99s...)
}

// windowP99 is the median over windows of each window's p99, in ns.
func (w *windowed) windowP99() float64 { return median(w.p99s) }

// median returns the median of xs (0 when empty) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
