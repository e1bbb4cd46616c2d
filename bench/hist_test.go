package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
)

// oracleQuantile is the ceil(q*n)-th smallest sample.
func oracleQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func latencySamples(r *rand.Rand, n int, medianNs float64) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		// log-normal body with a heavy tail, like a latency distribution
		v := medianNs * math.Exp(r.NormFloat64()*0.6)
		if r.Intn(200) == 0 {
			v *= 20
		}
		xs[i] = int64(v)
	}
	return xs
}

func TestHistWithinOnePercentOfOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, med := range []float64{90, 1_600, 4_400, 180_000, 1.4e9} {
		xs := latencySamples(r, 200_000, med)
		var h hist
		for _, x := range xs {
			h.record(x)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			want, got := oracleQuantile(xs, q), h.quantile(q)
			if math.Abs(got-want) > 0.01*want+1 {
				t.Errorf("median %g q%g: hist %g, oracle %g (%.2f%% off)", med, q, got, want, 100*(got-want)/want)
			}
		}
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(12345) }); n != 0 {
		t.Fatalf("record allocates %v times", n)
	}
	var w windowed
	now := int64(0)
	if n := testing.AllocsPerRun(1000, func() { now += 1000; w.record(now, 777) }); n != 0 {
		t.Fatalf("windowed.record allocates %v times", n)
	}
}

func TestHistIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 - 1, 1 << 40, 1 << 62} {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d (buckets %d)", v, i, prev, histBuckets)
		}
		prev = i
		lo, width := histBounds(i)
		if v < 1<<histMaxBits && (float64(v) < lo || float64(v) >= lo+width) {
			t.Fatalf("value %d outside its bucket [%g, %g)", v, lo, lo+width)
		}
		if lo >= histSub && width/lo > 1.0/histSub+1e-9 {
			t.Fatalf("bucket at %g is %g wide: more than 1/%d of its bound", lo, width, histSub)
		}
	}
}

// obs.Histogram's power-of-two buckets fail the same oracle at the 10 %
// regression bound: this is why the bench keeps its own histogram.
func TestObsHistogramTooCoarse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	worst := 0.0
	for _, med := range []float64{1_100, 1_600, 4_400, 180_000} {
		xs := make([]int64, 100_000)
		var coarse obs.Histogram
		var fine hist
		for i := range xs {
			xs[i] = int64(med * (1 + 0.05*r.NormFloat64())) // a tight latency mode
			coarse.RecordNanos(xs[i])
			fine.record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		want := oracleQuantile(xs, 0.5)
		if got := fine.quantile(0.5); math.Abs(got-want) > 0.01*want {
			t.Errorf("median %g: bench hist p50 %g, oracle %g", med, got, want)
		}
		off := math.Abs(float64(coarse.Quantile(0.5))-want) / want
		if off > worst {
			worst = off
		}
	}
	if worst <= 0.10 {
		t.Fatalf("obs.Histogram stayed within 10 %% of the oracle (worst %.1f %%): the bench could reuse it", worst*100)
	}
	t.Logf("obs.Histogram p50 is up to %.0f %% off the oracle", worst*100)
}

func TestWindowedP99(t *testing.T) {
	var w windowed
	now := int64(5e9)
	// Ten one-second windows of 2000 samples at 1 us with 1.5 % at 50 us;
	// window 4 holds a scheduler hiccup: a third of it at 10 ms.
	for win := 0; win < 10; win++ {
		for i := 0; i < 2000; i++ {
			now += windowNanos / 2000
			d := int64(1000)
			if i%67 == 0 {
				d = 50_000
			}
			if win == 4 && i%3 == 0 {
				d = 10_000_000
			}
			w.record(now, d)
		}
	}
	w.finish()
	if len(w.p99s) < 9 || len(w.p99s) > 11 {
		t.Fatalf("%d windows emitted, want about 10", len(w.p99s))
	}
	if got := w.windowP99(); got < 45_000 || got > 55_000 {
		t.Fatalf("window p99 %g ns, want about 50000: one bad window must not own the estimate", got)
	}
	if overall := w.total.quantile(0.99); overall < 1_000_000 {
		t.Fatalf("the plain p99 %g should have been dragged up by the hiccup (test is vacuous otherwise)", overall)
	}
	if w.total.n != 20_000 {
		t.Fatalf("total holds %d samples, want 20000", w.total.n)
	}

	// Merge rule: 400 samples a second never fill a window alone; every
	// third second closes one with 1200 samples.
	var sparse windowed
	now = int64(1e9)
	for i := 0; i < 12*400; i++ {
		now += windowNanos / 400
		sparse.record(now, 2000)
	}
	sparse.finish()
	if len(sparse.p99s) != 4 {
		t.Fatalf("sparse stream emitted %d windows, want 4 (three seconds merge into one)", len(sparse.p99s))
	}
	if sparse.total.n != 12*400 {
		t.Fatalf("merged windows lost samples: %d", sparse.total.n)
	}

	// A run too short for any full window still reports one p99.
	var short windowed
	short.record(1e9, 5000)
	short.record(1e9+10, 7000)
	short.finish()
	if len(short.p99s) != 1 {
		t.Fatalf("short run emitted %d windows, want 1", len(short.p99s))
	}
}
