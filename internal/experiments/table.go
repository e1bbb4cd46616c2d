// Package experiments regenerates the paper's artifacts: one function
// per experiment in EXPERIMENTS.md (E1–E9), each reproducing a table or
// figure (Table 1, the three-pass behaviour of Figures 1–2) or
// quantifying a comparative claim (§6.1 swap reduction, §8 concurrency
// / recovery / granularity / log volume vs the Tandem-style baseline).
// `reorg-bench exp` renders them; system performance is measured by
// bench/, not here.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	repro "repro"
	"repro/internal/workload"
)

// Params scales the experiments (defaults are laptop-friendly).
type Params struct {
	Records   int // records loaded before sparsification
	ValueSize int
	PageSize  int
	Seed      int64
}

// DefaultParams returns the standard experiment scale.
func DefaultParams() Params {
	return Params{Records: 20000, ValueSize: 48, PageSize: 4096, Seed: 42}
}

// buildSparse creates a database holding Records records loaded in
// random order and sparsified to keepFraction.
func buildSparse(p Params, keepFraction float64) (*repro.DB, func(int) bool, error) {
	db, err := repro.Open(repro.Options{PageSize: p.PageSize})
	if err != nil {
		return nil, nil, err
	}
	if err := workload.Load(db, p.Records, p.ValueSize, "random", p.Seed); err != nil {
		return nil, nil, err
	}
	keep, err := workload.Sparsify(db, p.Records, keepFraction)
	if err != nil {
		return nil, nil, err
	}
	return db, keep, nil
}

// verifyAll checks invariants plus full record presence.
func verifyAll(db *repro.DB, keep func(int) bool, n int) error {
	if err := db.Check(); err != nil {
		return err
	}
	count := 0
	for i := 0; i < n; i++ {
		if keep(i) {
			count++
		}
	}
	got, err := db.Count(nil, nil)
	if err != nil {
		return err
	}
	if got != count {
		return fmt.Errorf("experiments: %d records, want %d", got, count)
	}
	return nil
}

// Table renders simple aligned text tables for the reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		widths[i] = w
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		line(r)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func f2(v float64) string       { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string       { return fmt.Sprintf("%.0f", v) }
func d(v int64) string          { return fmt.Sprintf("%d", v) }
func di(v int) string           { return fmt.Sprintf("%d", v) }
func ms(v time.Duration) string { return fmt.Sprintf("%.1fms", float64(v.Microseconds())/1000) }
func us(v time.Duration) string { return fmt.Sprintf("%.0fus", float64(v.Nanoseconds())/1000) }
