package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/metrics"
)

// config is one run: one workload, one seed, one tape size.
type config struct {
	workload string
	seed     int64
	seconds  int  // tape size: seconds of work at the seed commit's speed
	scale    int  // divisor on records and tape length (1 = full size)
	clients  int  // 2, or 1 in the self-tests
	traced   bool // span recorder, probes and per-layer metrics
	setups   int  // full set-ups timed for setup_s
	dataDir  string
	spans    string // span file path ("" = none)
}

// env is the state of one run.
type env struct {
	cfg    config
	db     *repro.DB
	opts   repro.Options
	dir    string // file-backend directory ("" = in memory)
	keys   []byte
	vals   [][]byte
	shadow []uint16
	live   atomic.Int64 // records the shadow model holds
	epoch  time.Time
	cl     []*client

	reorgActive atomic.Bool
	splitGets   bool // file-reorg: the get tail metrics count only gets started during a Reorganize

	// Measured phase: wall time and counter deltas summed over segments.
	measuredNanos int64
	counts        counterSet
	baseHeap      uint64

	fills, spaceAmps []float64 // per-cycle / per-wave / end-of-run samples
	occNanos         hist      // span of the bench's own DB.Occupancy(8)
	checkpointWAL    int64     // Log().BytesAppended at the last bench checkpoint
	reorg            reorgStats
	daemon           daemonStats
	probes           probeStats
	workloadSpan     uint64 // root of the span tree (traced run)
	failures         []string
	failMu           sync.Mutex
}

func (e *env) now() int64 { return int64(time.Since(e.epoch)) }

func (e *env) key(i uint32) []byte {
	o := int(i) * keyWidth
	return e.keys[o : o+keyWidth : o+keyWidth]
}

func (e *env) noteFailure(format string, a ...any) {
	e.failMu.Lock()
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, a...))
	}
	e.failMu.Unlock()
}

// kvAPI is the operation surface *repro.DB (auto-commit, untraced run)
// and *repro.Txn (explicit transaction, traced run) share.
type kvAPI interface {
	Get(key []byte) ([]byte, error)
	Insert(key, val []byte) error
	Update(key, val []byte) error
	Delete(key []byte) error
	Scan(lo, hi []byte, fn func(key, val []byte) bool) error
	InsertBatch(keys, vals [][]byte) error
}

// recorder is what one client measured. Clients never share one; they
// are merged after the clients have stopped.
type recorder struct {
	attempted, failed int64
	kinds             [numOpKinds]int64
	getBusy, getIdle  windowed // getIdle: gets outside a Reorganize when env.splitGets
	write             windowed
	scanNanos         [2]int64 // [scanPost] default, [scanPre] file-reorg pre-reorganization scans
	scanRows          [2]int64
	logicalBytes      int64
	writeCommits      int64
	mutations         int64 // foreground ops that write
	busyOps, idleOps  int64 // ops and op time while a Reorganize is / is not in flight
	busyNs, idleNs    int64

	// traced run only
	retries               int64
	begin, commit         hist
	btree                 [numOpKinds]hist
	scanSpanNs, batchNs   int64
	tracedOps, plainOps   int64 // chunk alternation for trace.overhead_frac
	tracedNanos, plainNs  int64
	spanRows, spanBatched int64
}

const (
	scanPost = 0
	scanPre  = 1
)

func (r *recorder) absorb(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	for i := range r.kinds {
		r.kinds[i] += o.kinds[i]
		r.btree[i].merge(&o.btree[i])
	}
	r.getBusy.absorb(&o.getBusy)
	r.getIdle.absorb(&o.getIdle)
	r.write.absorb(&o.write)
	for i := range r.scanNanos {
		r.scanNanos[i] += o.scanNanos[i]
		r.scanRows[i] += o.scanRows[i]
	}
	r.logicalBytes += o.logicalBytes
	r.writeCommits += o.writeCommits
	r.mutations += o.mutations
	r.busyOps += o.busyOps
	r.idleOps += o.idleOps
	r.busyNs += o.busyNs
	r.idleNs += o.idleNs
	r.retries += o.retries
	r.begin.merge(&o.begin)
	r.commit.merge(&o.commit)
	r.scanSpanNs += o.scanSpanNs
	r.batchNs += o.batchNs
	r.tracedOps += o.tracedOps
	r.plainOps += o.plainOps
	r.tracedNanos += o.tracedNanos
	r.plainNs += o.plainNs
	r.spanRows += o.spanRows
	r.spanBatched += o.spanBatched
}

// client is one closed-loop caller: it issues its next operation when
// the previous one returns.
type client struct {
	e         *env
	id        int
	rec       recorder
	tr        *tracer // nil in the untraced run
	alternate bool    // traced run: trace every other chunk of a tape
	phase     uint64  // current phase span (traced run)
	phaseIdx  uint8
	phaseFrom int64
	scanClass int // scanPre during phScanPre, else scanPost
	jitter    *rand.Rand

	tapeSeconds []float64 // how long each of this client's tapes took

	bkeys, bvals [][]byte
	bidx         []uint16

	// reorganization events (cycle driver only)
	unitStart, passMark [4]int64
	reorgID             uint64
	abortAtMoved        int // epilogue: fail the Nth compact.moved event
	movedSeen           int
}

func newClient(e *env, id int) *client {
	c := &client{e: e, id: id, jitter: rand.New(rand.NewSource(int64(0xb0ff + id)))}
	if e.cfg.traced {
		c.tr = newTracer(id)
		c.alternate = true
	}
	return c
}

const maxTxnRetries = 100

// backoff mirrors DB.auto's retry pacing for the explicit transactions
// the bench runs itself.
func (c *client) backoff(attempt int) {
	d := time.Duration(attempt) * 100 * time.Microsecond
	if d > 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 0 {
		time.Sleep(d/2 + time.Duration(c.jitter.Int63n(int64(d)/2+1)))
	}
}

func isWrite(k opKind) bool {
	return k == opUpdate || k == opInsert || k == opDelete || k == opBatch || k == opDeleteTxn
}

// setPhase closes the current phase span and opens the next one.
func (c *client) setPhase(phase uint8) {
	c.scanClass = scanPost
	if phase == phScanPre {
		c.scanClass = scanPre
	}
	if c.tr == nil {
		return
	}
	now := c.e.now()
	c.closePhase(now)
	c.phase, c.phaseIdx, c.phaseFrom = c.tr.newID(), phase, now
}

func (c *client) closePhase(now int64) {
	if c.tr != nil && c.phase != 0 {
		c.tr.add(c.phase, c.e.workloadSpan, spPhase, spWorkload, c.phaseIdx, c.phaseFrom, now)
		c.phase = 0
	}
}

// traceChunks is how many alternating traced/untraced chunks a tape is
// cut into for trace.overhead_frac.
const traceChunks = 64

// runTape executes one tape. In the traced run every other chunk runs
// through the untraced path, so the two paths see the same database
// state and their ops/s can be compared within one run.
func (c *client) runTape(tp *tape) {
	chunk := len(tp.ops) / traceChunks
	if c.tr == nil || !c.alternate || chunk < 1 {
		chunk = len(tp.ops)
	}
	marks := tp.marks
	for lo, n := 0, 0; lo < len(tp.ops); lo, n = lo+chunk, n+1 {
		hi := lo + chunk
		if hi > len(tp.ops) {
			hi = len(tp.ops)
		}
		traced := c.tr != nil && (!c.alternate || n%2 == 0)
		t0 := c.e.now()
		for i := lo; i < hi; i++ {
			if len(marks) > 0 && marks[0].at == i {
				c.setPhase(marks[0].phase)
				marks = marks[1:]
			}
			c.exec(tp, tp.ops[i], traced)
		}
		d := c.e.now() - t0
		if traced {
			c.rec.tracedOps += int64(hi - lo)
			c.rec.tracedNanos += d
		} else {
			c.rec.plainOps += int64(hi - lo)
			c.rec.plainNs += d
		}
	}
}

// exec runs one tape entry, times it, checks its result and, once the
// database acknowledged a write, applies it to the shadow model.
func (c *client) exec(tp *tape, o op, traced bool) {
	e, r := c.e, &c.rec
	r.kinds[o.kind]++
	switch o.kind {
	case opGet, opUpdate, opInsert, opDelete:
		key := e.key(o.key)
		var val []byte
		if o.kind == opUpdate || o.kind == opInsert {
			val = e.vals[o.val]
		}
		busy := e.reorgActive.Load()
		var (
			got []byte
			err error
		)
		t0 := e.now()
		if traced {
			err = c.txn(o.kind, func(tx *repro.Txn) error {
				got, err = applyOne(tx, o.kind, key, val)
				return err
			})
		} else {
			got, err = applyOne(e.db, o.kind, key, val)
		}
		t1 := e.now()
		r.attempted++
		if busy {
			r.busyOps++
			r.busyNs += t1 - t0
		} else {
			r.idleOps++
			r.idleNs += t1 - t0
		}
		if o.kind == opGet {
			if e.splitGets && !busy {
				r.getIdle.record(t1, t1-t0)
			} else {
				r.getBusy.record(t1, t1-t0)
			}
			if err != nil || e.shadow[o.key] == 0 || !bytes.Equal(got, e.vals[e.shadow[o.key]-1]) {
				c.fail(o, err, "get returned a value other than the last acknowledged one")
			}
			return
		}
		r.write.record(t1, t1-t0)
		r.mutations++
		if err != nil {
			c.fail(o, err, "")
			return
		}
		r.writeCommits++
		switch o.kind {
		case opDelete:
			e.shadow[o.key] = 0
			e.live.Add(-1)
			r.logicalBytes += keyWidth
		case opInsert:
			e.live.Add(1)
			fallthrough
		default:
			e.shadow[o.key] = o.val + 1
			r.logicalBytes += keyWidth + valueSize
		}

	case opScan:
		sc := tp.scans[o.key]
		var lo []byte
		if sc.lo != 0 || sc.limit != 0 {
			lo = e.key(sc.lo)
		}
		// A retried scan (deadlock, switch) restarts from lo: a key that
		// does not ascend marks the restart, so rows are never counted twice.
		var (
			rows int
			last [keyWidth]byte
		)
		fn := func(k, _ []byte) bool {
			if rows > 0 && bytes.Compare(k, last[:]) <= 0 {
				rows = 0
			}
			copy(last[:], k)
			rows++
			return sc.limit == 0 || rows < int(sc.limit)
		}
		var err error
		t0 := e.now()
		if traced {
			err = c.txn(opScan, func(tx *repro.Txn) error { return tx.Scan(lo, nil, fn) })
		} else {
			err = e.db.Scan(lo, nil, fn)
		}
		t1 := e.now()
		r.attempted++
		r.scanNanos[c.scanClass] += t1 - t0
		r.scanRows[c.scanClass] += int64(rows)
		if traced {
			r.spanRows += int64(rows)
		}
		if err != nil || rows == 0 || (sc.want != 0 && rows != int(sc.want)) {
			c.fail(o, err, fmt.Sprintf("scan delivered %d rows, want %d", rows, sc.want))
		}

	case opBatch:
		g := tp.groups[o.key]
		keys, vals, idx := c.bkeys[:0], c.bvals[:0], c.bidx[:0]
		for j, k := range g {
			v := valFor(k, int(o.val)+j)
			keys, vals, idx = append(keys, e.key(k)), append(vals, e.vals[v]), append(idx, v)
		}
		c.bkeys, c.bvals, c.bidx = keys, vals, idx
		var err error
		if traced {
			err = c.txn(opBatch, func(tx *repro.Txn) error { return tx.InsertBatch(keys, vals) })
		} else {
			err = e.db.InsertBatch(keys, vals)
		}
		r.attempted++
		r.mutations++
		if err != nil {
			c.fail(o, err, "")
			return
		}
		r.writeCommits++
		if traced {
			r.spanBatched += int64(len(g))
		}
		r.logicalBytes += int64(len(g)) * (keyWidth + valueSize)
		for j, k := range g {
			e.shadow[k] = idx[j] + 1
		}
		e.live.Add(int64(len(g)))

	case opDeleteTxn:
		g := tp.groups[o.key]
		r.attempted += int64(len(g))
		r.kinds[opDelete] += int64(len(g))
		r.mutations += int64(len(g))
		err := c.txn(opDeleteTxn, func(tx *repro.Txn) error {
			for _, k := range g {
				var t0 int64
				if traced {
					t0 = e.now()
				}
				if err := tx.Delete(e.key(k)); err != nil {
					return err
				}
				if traced {
					r.btree[opDelete].record(e.now() - t0)
				}
			}
			return nil
		})
		if err != nil {
			r.failed += int64(len(g)) - 1
			c.fail(o, err, "")
			return
		}
		r.writeCommits++
		r.logicalBytes += int64(len(g)) * keyWidth
		for _, k := range g {
			e.shadow[k] = 0
		}
		e.live.Add(-int64(len(g)))

	case opReorganize:
		r.attempted++
		if err := c.reorganize(repro.DefaultReorgConfig()); err != nil {
			c.fail(o, err, "")
		}

	case opSample:
		s, err := e.sample()
		if err != nil {
			c.fail(o, err, "")
			return
		}
		switch o.key {
		case sampleBefore:
			e.reorg.fillBefore = append(e.reorg.fillBefore, s.fill)
		case sampleAfter:
			e.reorg.fillAfter = append(e.reorg.fillAfter, s.fill)
			e.reorg.leavesAfter += s.leaves
		default:
			e.fills, e.spaceAmps = append(e.fills, s.fill), append(e.spaceAmps, s.amp)
		}
	}
}

func applyOne(api kvAPI, kind opKind, key, val []byte) ([]byte, error) {
	switch kind {
	case opGet:
		return api.Get(key)
	case opUpdate:
		return nil, api.Update(key, val)
	case opInsert:
		return nil, api.Insert(key, val)
	default:
		return nil, api.Delete(key)
	}
}

func (c *client) fail(o op, err error, why string) {
	c.rec.failed++
	c.e.noteFailure("client %d %s key %d: %s %v", c.id, opKindNames[o.kind], o.key, why, err)
}

// txn runs body as one explicit transaction with the retry loop DB.auto
// uses (abort and retry on IsRetryable errors), recording the op's child
// spans when the client is tracing: txn.begin, btree.<op>, txn.commit.
func (c *client) txn(kind opKind, body func(tx *repro.Txn) error) error {
	e, r, tr := c.e, &c.rec, c.tr
	var opID uint64
	if tr != nil {
		opID = tr.newID()
	}
	opStart := e.now()
	var err error
	for attempt := 0; attempt < maxTxnRetries; attempt++ {
		t0 := e.now()
		tx := e.db.Begin()
		t1 := e.now()
		err = body(tx)
		t2 := e.now()
		if tr != nil {
			tr.add(tr.newID(), opID, spTxnBegin, spOp, 0, t0, t1)
			tr.add(tr.newID(), opID, spBtree, spOp, uint8(kind), t1, t2)
			r.begin.record(t1 - t0)
			switch kind {
			case opScan:
				r.scanSpanNs += t2 - t1
			case opBatch:
				r.batchNs += t2 - t1
			case opDeleteTxn:
			default:
				r.btree[kind].record(t2 - t1)
			}
		}
		if err == nil {
			err = tx.Commit()
			if tr != nil {
				t3 := e.now()
				tr.add(tr.newID(), opID, spTxnCommit, spOp, 0, t2, t3)
				if isWrite(kind) {
					r.commit.record(t3 - t2)
				}
			}
			if err == nil {
				break
			}
		}
		_ = tx.Abort()
		if !repro.IsRetryable(err) {
			break
		}
		r.retries++
		c.backoff(attempt)
	}
	if tr != nil {
		tr.add(opID, c.phase, spOp, spPhase, uint8(kind), opStart, e.now())
	}
	return err
}

// --- reorganization, observed through core.Config.OnEvent ---

type reorgStats struct {
	runs                  []float64 // seconds per full Reorganize
	pass                  [4][]float64
	unit                  hist
	counters              map[string]int64
	during                counterSet // counter deltas while Reorganize ran
	fillBefore, fillAfter []float64
	leavesAfter           int64
}

var errInjectedCrash = errors.New("bench: scripted crash inside a reorganization unit")

// onEvent timestamps the reorganizer's named points: unit begin/end
// give unit durations, the first event of a later pass closes the pass
// before it.
func (c *client) onEvent(stage string) error {
	e := c.e
	now := e.now()
	pass := 0
	switch stage {
	case "compact.begin":
		c.unitStart[1] = now
	case "move.begin", "swap.begin":
		c.unitStart[2] = now
		pass = 2
	case "compact.end":
		c.unitDone(1, now)
	case "move.end", "swap.end":
		c.unitDone(2, now)
	case "compact.moved":
		c.movedSeen++
		if c.movedSeen == c.abortAtMoved {
			return errInjectedCrash
		}
	case "pass3.base", "pass3.built":
		pass = 3
	}
	if pass != 0 && c.passMark[pass] == 0 {
		c.passMark[pass] = now
	}
	return nil
}

func (c *client) unitDone(pass int, now int64) {
	start := c.unitStart[pass]
	c.e.reorg.unit.record(now - start)
	if c.tr != nil {
		c.tr.add(c.tr.newID(), c.reorgID, spUnit, spReorganize, uint8(pass), start, now)
	}
}

// reorganize runs one Reorganize on this client's goroutine (the
// reorganizer is one of the two working threads) and files its timing,
// its returned counters and the counter deltas it caused.
func (c *client) reorganize(cfg repro.ReorgConfig) error {
	e := c.e
	cfg.OnEvent = c.onEvent
	c.passMark = [4]int64{}
	if c.tr != nil {
		c.reorgID = c.tr.newID()
	}
	before := readCounters(e.db)
	e.reorgActive.Store(true)
	t0 := e.now()
	m, err := e.db.Reorganize(cfg)
	t1 := e.now()
	e.reorgActive.Store(false)
	if m != nil {
		if e.reorg.counters == nil {
			e.reorg.counters = map[string]int64{}
		}
		for k, v := range m.Snapshot() {
			e.reorg.counters[k] += v
		}
	}
	if err != nil {
		return err
	}
	e.reorg.during.addDelta(readCounters(e.db), before)
	e.reorg.runs = append(e.reorg.runs, float64(t1-t0)/1e9)
	// Pass boundaries: a pass that logged no event of its own has zero length.
	marks := [5]int64{0, t0, c.passMark[2], c.passMark[3], t1}
	for p := 3; p >= 1; p-- {
		if marks[p] == 0 {
			marks[p] = marks[p+1]
		}
	}
	for p := 1; p <= 3; p++ {
		e.reorg.pass[p] = append(e.reorg.pass[p], float64(marks[p+1]-marks[p])/1e9)
		if c.tr != nil {
			c.tr.add(c.tr.newID(), c.reorgID, spPass, spReorganize, uint8(p), marks[p], marks[p+1])
		}
	}
	if c.tr != nil {
		c.tr.add(c.reorgID, c.phase, spReorganize, spPhase, 0, t0, t1)
	}
	return nil
}

func (r *reorgStats) counter(name string) float64 { return float64(r.counters[name]) }

func (r *reorgStats) units() float64 {
	return r.counter(metrics.UnitsCompact) + r.counter(metrics.UnitsMove) + r.counter(metrics.UnitsSwap)
}

// --- samples, checkpoints, segments ---

const (
	sampleCycle  = 0
	sampleBefore = 1
	sampleAfter  = 2
)

type occupancySample struct {
	fill, amp float64
	leaves    int64
}

// sample reads the leaf-weighted average fill and the space
// amplification through DB.Occupancy(8), the daemon's own sensor.
func (e *env) sample() (s occupancySample, err error) {
	t0 := e.now()
	occ, err := e.db.Occupancy(8)
	e.occNanos.record(e.now() - t0)
	if err != nil {
		return s, err
	}
	var weighted float64
	for _, r := range occ.Ranges {
		s.leaves += int64(r.Leaves)
		weighted += r.AvgFill * float64(r.Leaves)
	}
	s.fill = ratio(weighted, float64(s.leaves))
	s.amp = ratio(float64(occ.Free.Allocated)*float64(e.db.PageSize()),
		float64(e.live.Load())*(keyWidth+valueSize))
	return s, nil
}

func (e *env) checkpoint() error {
	if err := e.db.Checkpoint(); err != nil {
		return err
	}
	e.checkpointWAL = e.db.Tree().Log().BytesAppended()
	return nil
}

// runSegment runs one tape per client to completion, the clients in
// parallel, then takes a checkpoint if the workload's cycle ends with
// one, and adds the segment's wall time and counter deltas to the
// measured phase. A nil tape leaves its client idle.
//
// The checkpoint waits for the clients because DB.Checkpoint is not
// safe beside a committing transaction at the seed: it snapshots the
// active transactions and appends its record as two steps, so a
// transaction that commits in between is taken for a loser by the next
// restart and its acknowledged write is undone (or recovery stops at
// "unexpected TxnCommit in undo chain"). No operation on a tape may
// fail, so the bench checkpoints only a quiescent database.
func (e *env) runSegment(tapes []*tape, checkpoint bool) error {
	before := readCounters(e.db)
	var wg sync.WaitGroup
	start := e.now()
	for i, tp := range tapes {
		if tp == nil {
			continue
		}
		wg.Add(1)
		go func(c *client, tp *tape) {
			defer wg.Done()
			c.runTape(tp)
			c.tapeSeconds = append(c.tapeSeconds, float64(e.now()-start)/1e9)
		}(e.cl[i], tp)
	}
	wg.Wait()
	var err error
	if checkpoint {
		err = e.checkpoint()
	}
	e.measuredNanos += e.now() - start
	e.counts.addDelta(readCounters(e.db), before)
	return err
}
