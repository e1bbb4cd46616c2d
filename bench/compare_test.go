package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(values, n=4), default exclusive method.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 3}, 2.5, 5.5},
		{[]float64{2.5, 3.1, 2.9, 3.4, 2.2}, 2.35, 3.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "some_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "some_per_s", Better: "higher", Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	noisy := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.25, c * 0.9, c * 1.15} }
	cases := []struct {
		name      string
		def       metricDef
		base, cur []float64
		want      verdict
	}{
		{"unchanged", lower, steady(100), steady(101), verdictOK},
		{"slower latency", lower, steady(100), steady(115), verdictRegression},
		{"faster latency", lower, steady(100), steady(70), verdictOK},
		{"throughput drop", higher, steady(1000), steady(850), verdictRegression},
		{"throughput gain", higher, steady(1000), steady(1300), verdictOK},
		{"inside the bound", higher, steady(1000), steady(930), verdictOK},
		{"noisy base hides it", lower, noisy(100), steady(115), verdictUnresolved},
		{"noisy new side", lower, steady(100), noisy(100), verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.def, c.base, c.cur); got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

func TestCompareDocuments(t *testing.T) {
	mk := func(ops, p50 float64) *document {
		d := &document{Workloads: map[string][]runLine{}}
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.004*float64(i-2)
			d.Workloads[wlMemHot] = append(d.Workloads[wlMemHot], runLine{resultLine: resultLine{
				Correct: true, Attempted: 1, Metrics: map[string]value{
					"ops_per_s":  {ops * jitter, "1/s"},
					"get_p50_us": {p50 * jitter, "us"},
				}}})
		}
		// a traced run must not leak into the end-to-end comparison
		d.Workloads[wlMemHot] = append(d.Workloads[wlMemHot], runLine{Trace: 1, resultLine: resultLine{
			Metrics: map[string]value{"ops_per_s": {1, "1/s"}}}})
		return d
	}
	var out bytes.Buffer
	if n := compareDocuments(&out, mk(200_000, 1.6), mk(140_000, 1.62)); n != 1 {
		t.Fatalf("%d regressions, want 1:\n%s", n, out.String())
	}
	text := out.String()
	for _, want := range []string{"regression", "ok", "0.7000x of 200000", "25%"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison output lacks %q:\n%s", want, text)
		}
	}
}
