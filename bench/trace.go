package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// The traced run records spans from the bench's own files, around the
// calls it makes into each layer: workload -> phase -> op ->
// {txn.begin, btree.<op>, txn.commit}; reorganize -> core.pass1|2|3 ->
// core.unit from OnEvent timestamps; daemon.tick from OnTick;
// recovery.restart. Spans stay in memory and are written out only when
// the workload ends. Every span feeds the per-name aggregates (count,
// total, time covered by children: self = total - children); the span
// rows themselves are kept for the first traceCap spans of each
// recorder, which is the fixed prefix the span file holds.

type spanName uint8

const (
	spWorkload spanName = iota
	spPhase
	spOp
	spTxnBegin
	spBtree
	spTxnCommit
	spReorganize
	spPass
	spUnit
	spDaemonTick
	spRestart
	spProbe
	numSpanNames
)

var spanNames = [numSpanNames]string{"workload", "phase", "op", "txn.begin",
	"btree", "txn.commit", "reorganize", "core.pass", "core.unit",
	"daemon.tick", "recovery.restart", "probe"}

type span struct {
	id, parent uint64
	name       spanName
	detail     uint8 // op kind, pass number or phase index
	start, end int64
}

type spanAgg struct {
	n               uint64
	total, children int64
}

// traceCap bounds the span rows one recorder keeps (aggregates cover
// every span regardless).
const traceCap = 1 << 17

// tracer is one goroutine's span recorder; ids are unique across
// recorders because the recorder index is folded into them.
type tracer struct {
	base    uint64
	next    uint64
	spans   []span
	dropped uint64
	agg     [numSpanNames]spanAgg
}

func newTracer(index int) *tracer {
	return &tracer{base: uint64(index+1) << 40, spans: make([]span, 0, traceCap)}
}

// newID reserves an id, so a parent can hand it to children that end
// before it does.
func (t *tracer) newID() uint64 {
	t.next++
	return t.base | t.next
}

// add records a finished span under parent (whose name is parentName).
func (t *tracer) add(id, parent uint64, name, parentName spanName, detail uint8, start, end int64) {
	a := &t.agg[name]
	a.n++
	a.total += end - start
	if parent != 0 {
		t.agg[parentName].children += end - start
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{id, parent, name, detail, start, end})
	} else {
		t.dropped++
	}
}

// spanLabel is the name written to the span file.
func spanLabel(s span) string {
	switch s.name {
	case spPhase:
		if s.detail < numPhases {
			return "phase." + phaseNames[s.detail]
		}
	case spOp:
		return "op." + opKindNames[s.detail]
	case spBtree:
		return "btree." + opKindNames[s.detail]
	case spPass:
		return fmt.Sprintf("core.pass%d", s.detail)
	}
	return spanNames[s.name]
}

// writeSpans merges the recorders by start time and writes
// {id, parent, name, start_ns, end_ns} rows as one JSON array.
func writeSpans(path string, tracers []*tracer) (kept int, dropped uint64, err error) {
	var all []span
	for _, t := range tracers {
		all = append(all, t.spans...)
		dropped += t.dropped
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	f, err := os.Create(path)
	if err != nil {
		return 0, dropped, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	for i, s := range all {
		sep := ",\n"
		if i == len(all)-1 {
			sep = "\n"
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}%s`,
			s.id, s.parent, spanLabel(s), s.start, s.end, sep)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, dropped, err
	}
	return len(all), dropped, f.Close()
}
