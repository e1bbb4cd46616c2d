package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// document is what -out writes and -compare reads: the host
// fingerprint and, per workload, the result line of every run.
type document struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Quick       bool                 `json:"quick"`
	Workloads   map[string][]runLine `json:"workloads"`
}

type runLine struct {
	Seed  int64 `json:"seed"`
	Trace int   `json:"trace"`
	Quick bool  `json:"quick,omitempty"`
	resultLine
	Notes map[string]any `json:"notes,omitempty"`
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// how the spread of a metric is defined for this benchmark.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	s := (q3 - q1) / med
	if s < 0 {
		s = -s
	}
	return s
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "regression"
	verdictUnresolved verdict = "unresolved"
)

type comparison struct {
	workload, metric      string
	base, cur             float64 // medians
	baseSpread, curSpread float64
	bound                 float64
	worse                 float64 // share of base by which cur is worse (negative: better)
	verdict               verdict
}

// judge compares the medians of two sets of runs of one metric. The
// verdict is unresolved when either side's own run-to-run spread
// exceeds the bound: the sets cannot tell a change that size from noise.
func judge(def metricDef, base, cur []float64) comparison {
	c := comparison{metric: def.Name, bound: def.Bound,
		base: median(base), cur: median(cur),
		baseSpread: spread(base), curSpread: spread(cur)}
	if c.base != 0 {
		c.worse = (c.cur - c.base) / c.base
		if def.Better == "higher" {
			c.worse = -c.worse
		}
	}
	switch {
	case c.baseSpread > def.Bound || c.curSpread > def.Bound:
		c.verdict = verdictUnresolved
	case c.worse > def.Bound:
		c.verdict = verdictRegression
	default:
		c.verdict = verdictOK
	}
	return c
}

func metricValues(runs []runLine, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// compareDocuments judges every workload x end-to-end metric present in
// both documents and prints one row each: base, new, the ratio with its
// base, both spreads, the bound and the verdict.
func compareDocuments(w io.Writer, base, cur *document) (regressions int) {
	fmt.Fprintf(w, "%-17s %-17s %12s %12s  %-22s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "new", "ratio (of base)", "spread.b", "spread.n", "bound", "verdict")
	for _, wl := range workloads {
		b, c := base.Workloads[wl.Name], cur.Workloads[wl.Name]
		for _, def := range endToEnd {
			bv, cv := metricValues(b, def.Name), metricValues(c, def.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			j := judge(def, bv, cv)
			if j.verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "%-17s %-17s %12.6g %12.6g  %-22s %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, def.Name, j.base, j.cur,
				fmt.Sprintf("%.4fx of %.6g", ratio(j.cur, j.base), j.base),
				j.baseSpread*100, j.curSpread*100, def.Bound*100, j.verdict)
		}
	}
	return regressions
}
