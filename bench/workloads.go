package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	repro "repro"
	"repro/internal/daemon"
)

// Tape sizes. A tape is sized once, as seconds of work at the speed the
// seed commit ran on a 2-core box, and then frozen: --seconds N selects
// N of those seconds of work, not N seconds of wall time. BENCHMARK.json
// records run_seconds; the counts below turn it into operations.
const (
	fullRecords  = 200_000 // mem-hot, file-commit, mem-churn-daemon
	pageSize     = 4096
	minPoolPages = 16

	memHotOpsPerSec     = 118_000 // per client
	fileCommitOpsPerSec = 3_800   // per client

	reorgRecords      = 100_000 // file-reorg: 3 of every 4 are deleted and refilled per cycle
	reorgPoolPages    = 1024
	reorgCycleSeconds = 5.5     // one sparsify-reorganize-refill cycle
	reorgReaderOps    = 260_000 // the concurrent client's fixed tape per cycle
	reorgAbortAtUnit  = 150     // the epilogue's reorganization dies inside this pass-1 unit

	churnWaveSeconds = 0.69 // one delete-heavy wave
)

func isFileWorkload(name string) bool { return name == wlFileCommit || name == wlFileReorg }

// build is one full set-up: materialise keys, values and the shadow
// model, generate the tapes, open the database, load it, checkpoint and
// warm the pool. setup_s is the median of cfg.setups of these.
func (e *env) build() (segs [][]*tape, err error) {
	cfg := e.cfg
	e.epoch = time.Now()
	e.vals = materialiseValues()
	e.opts = repro.Options{PageSize: pageSize}
	records := fullRecords / cfg.scale
	keySpace := records

	switch cfg.workload {
	case wlMemHot:
	case wlFileCommit:
		keySpace = fileCommitKeySpace(records, cfg.clients, fileCommitOpsPerSec*cfg.seconds/cfg.scale)
	case wlFileReorg:
		records = reorgRecords / cfg.scale
		keySpace = records
		e.opts.BufferPoolPages = reorgPoolPages
		e.splitGets = true
	case wlChurn:
		dc := daemon.DefaultConfig()
		dc.OnTick = e.daemon.onTick
		e.daemon.env = e
		e.opts.Daemon = &dc
		e.opts.DaemonClock = &e.daemon
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	e.keys = materialiseKeys(keySpace)
	e.shadow = make([]uint16, keySpace)
	var loaded []uint32
	for i := 0; i < keySpace; i++ {
		if cfg.workload != wlFileCommit || fileCommitLoaded(i, records, cfg.clients) {
			loaded = append(loaded, uint32(i))
		}
	}

	segs = e.generateTapes(records)

	// The bench's own memory (keys, values, shadow model, tapes; all of
	// it stays reachable until the run ends), so heap_mb can charge the
	// database for the rest.
	e.baseHeap = liveHeap()

	if isFileWorkload(cfg.workload) {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return nil, err
		}
		if e.dir, err = os.MkdirTemp(cfg.dataDir, cfg.workload+"-"); err != nil {
			return nil, err
		}
		e.opts.Dir = e.dir
		activeDir.Store(&e.dir)
	}
	if e.db, err = repro.Open(e.opts); err != nil {
		return nil, err
	}
	if err := e.load(loaded); err != nil {
		return nil, err
	}
	if cfg.workload == wlFileCommit {
		// Loaded with an unbounded pool; reopen with a pool one eighth of
		// the loaded tree, so the workload is larger than the cache.
		st, err := e.db.GatherStats()
		if err != nil {
			return nil, err
		}
		if err := e.db.Close(); err != nil {
			return nil, err
		}
		e.opts.BufferPoolPages = (st.LeafPages + st.InternalPages) / 8
		if e.opts.BufferPoolPages < minPoolPages {
			e.opts.BufferPoolPages = minPoolPages // scaled-down runs: room for a descent plus a split
		}
		if e.db, err = repro.Open(e.opts); err != nil {
			return nil, err
		}
	}
	if err := e.checkpoint(); err != nil {
		return nil, err
	}
	return segs, e.warm(loaded)
}

// liveHeap is the heap still reachable: HeapAlloc after three
// collections (sync.Pool contents survive one, finalizers need a
// second). HeapInuse would add span fragmentation, which varies from run
// to run by more than the database's own footprint on the small
// workloads.
func liveHeap() uint64 {
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSampler averages the heap over the measured phase: every 20 ms it
// reads the bytes held by heap objects, reachable or not yet collected.
// One reading after a forced collection at the end of the phase is no
// estimate of the footprint: the log keeps its un-truncated stream in
// one buffer that grows by doubling from a seed-dependent size, so the
// reading depends on where the run ends between two doublings
// (file-commit: 129 to 196 MB over ten seeds whose WAL volumes are 0.3 %
// apart). The mean over the phase crosses every step. The sampler sleeps
// between readings: it is not a third working goroutine.
type heapSampler struct {
	stop, done chan struct{}
	sum        float64
	n          int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.sum += float64(sample[0].Value.Uint64())
			h.n++
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mean stops the sampler and returns the mean heap in bytes.
func (h *heapSampler) mean() float64 {
	close(h.stop)
	<-h.done
	return h.sum / float64(h.n)
}

// load inserts the initial records in seeded random order through
// InsertBatch(256), as a bulk loader without sorted input would.
func (e *env) load(loaded []uint32) error {
	order := append([]uint32(nil), loaded...)
	r := tapeRNG(e.cfg.seed, e.cfg.workload, 0, "load")
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	const batch = 256
	keys, vals := make([][]byte, 0, batch), make([][]byte, 0, batch)
	for lo := 0; lo < len(order); lo += batch {
		hi := lo + batch
		if hi > len(order) {
			hi = len(order)
		}
		keys, vals = keys[:0], vals[:0]
		for _, k := range order[lo:hi] {
			v := valFor(k, 0)
			keys, vals = append(keys, e.key(k)), append(vals, e.vals[v])
			e.shadow[k] = v + 1
		}
		if err := e.db.InsertBatch(keys, vals); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	e.live.Store(int64(len(order)))
	return nil
}

// warm reads enough keys to fill a bounded pool before timing starts.
func (e *env) warm(loaded []uint32) error {
	n := 2 * e.opts.BufferPoolPages
	if n > len(loaded) {
		n = len(loaded)
	}
	r := tapeRNG(e.cfg.seed, e.cfg.workload, 0, "warm")
	for i := 0; i < n; i++ {
		if _, err := e.db.Get(e.key(loaded[r.Intn(len(loaded))])); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	return nil
}

// generateTapes returns tapes[segment][client]. mem-hot and file-commit
// are one segment; file-reorg is one segment per cycle and
// mem-churn-daemon one per wave.
func (e *env) generateTapes(records int) [][]*tape {
	cfg := e.cfg
	switch cfg.workload {
	case wlMemHot:
		seg := make([]*tape, cfg.clients)
		for c := range seg {
			seg[c] = memHotTape(cfg.seed, c, cfg.clients, records, memHotOpsPerSec*cfg.seconds/cfg.scale)
		}
		return [][]*tape{seg}
	case wlFileCommit:
		seg := make([]*tape, cfg.clients)
		for c := range seg {
			seg[c] = fileCommitTape(cfg.seed, c, cfg.clients, records, len(e.shadow),
				fileCommitOpsPerSec*cfg.seconds/cfg.scale)
		}
		return [][]*tape{seg}
	case wlFileReorg:
		cycles := int(float64(cfg.seconds)/reorgCycleSeconds + 0.5)
		if cycles < 1 {
			cycles = 1
		}
		var segs [][]*tape
		for k := 0; k < cycles; k++ {
			seg := []*tape{reorgCycleTape(cfg.seed, k, records)}
			if cfg.clients > 1 {
				seg = append(seg, reorgReaderTape(cfg.seed, k, records, reorgReaderOps/cfg.scale))
			}
			segs = append(segs, seg)
		}
		return segs
	default: // wlChurn: one client; the daemon goroutine is the second thread
		waves := int(float64(cfg.seconds)/churnWaveSeconds + 0.5)
		if waves < 1 {
			waves = 1
		}
		r := tapeRNG(cfg.seed, wlChurn, 0, "waves")
		present := make([]bool, records)
		for i := range present {
			present[i] = true
		}
		var (
			segs   [][]*tape
			refill []uint32
		)
		for w := 0; w < waves; w++ {
			var t *tape
			t, refill = churnWaveTape(r, w, records, present, refill)
			segs = append(segs, []*tape{t})
		}
		return segs
	}
}

// teardown closes the database and removes its directory. It runs on
// every exit path, so it tolerates a half-built or crashed env.
func (e *env) teardown() {
	if e.db != nil {
		_ = e.db.Close() // a crashed or failed run need not close cleanly
		e.db = nil
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
		activeDir.Store(nil)
	}
}

// result is what one run measured, before it is turned into metrics.
type result struct {
	setupSeconds []float64
	rec          recorder
	recoverySec  float64
	restart      *repro.RestartInfo
	replayBytes  int64
	heapMB       float64
	stats        repro.TreeStats
	forgoP99Us   float64
	obsOverhead  float64
	tracers      []*tracer
	spanFile     string
	spansKept    int
	spansDropped uint64
	verified     bool
}

// run executes one workload end to end: timed set-ups, the measured
// phase, then Check, crash, timed Restart and shadow-model verification.
// env and result are returned even with an error, holding what was
// measured up to it.
func run(cfg config) (e *env, res *result, err error) {
	res = &result{}
	defer func() { e.teardown() }()
	var segs [][]*tape
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.teardown()
		}
		e = &env{cfg: cfg}
		t0 := time.Now()
		if segs, err = e.build(); err != nil {
			return e, res, fmt.Errorf("set-up: %w", err)
		}
		res.setupSeconds = append(res.setupSeconds, time.Since(t0).Seconds())
	}
	for c := 0; c < len(segs[0]); c++ {
		e.cl = append(e.cl, newClient(e, c))
	}
	if cfg.workload == wlFileReorg {
		e.cl[0].alternate = false // heterogeneous cycle steps: always traced
	}
	if cfg.traced {
		e.workloadSpan = e.cl[0].tr.newID()
		e.probe(true)
	} else if isFileWorkload(cfg.workload) {
		e.probeDisk() // fsync_suspect needs the sync cost in every output
	}
	forgoBefore := forgoWaitSnapshot(e.db)
	started := e.now()

	// The measured phase.
	heap := startHeapSampler()
	e.daemon.start(e)
	for i, seg := range segs {
		if err := e.runSegment(seg, cfg.workload == wlFileReorg); err != nil {
			return e, res, err
		}
		if cfg.workload == wlChurn {
			// Between waves, with the clock paused: the daemon's own sensor.
			s, err := e.sample()
			if err != nil {
				return e, res, err
			}
			e.fills, e.spaceAmps = append(e.fills, s.fill), append(e.spaceAmps, s.amp)
		}
		if cfg.traced && len(segs) > 1 && i%4 == 3 {
			e.probe(cfg.workload != wlChurn)
		}
	}
	e.daemon.stop()
	for _, c := range e.cl {
		c.closePhase(e.now())
		c.rec.getBusy.finish()
		c.rec.getIdle.finish()
		c.rec.write.finish()
		res.rec.absorb(&c.rec)
	}
	res.forgoP99Us = float64(forgoWaitSnapshot(e.db).Sub(forgoBefore).Quantile(0.99)) / 1e3
	res.heapMB = (heap.mean() - float64(e.baseHeap)) / (1 << 20)

	if d := e.db.Daemon(); d != nil {
		d.Stop() // Check and GatherStats need a quiescent tree
	}
	if len(e.fills) == 0 {
		s, err := e.sample()
		if err != nil {
			return e, res, err
		}
		e.fills, e.spaceAmps = []float64{s.fill}, []float64{s.amp}
	}
	if cfg.traced {
		e.probe(true)
		if cfg.workload == wlMemHot {
			if res.obsOverhead, err = obsOverhead(cfg); err != nil {
				return e, res, err
			}
		}
	}
	if res.stats, err = e.db.GatherStats(); err != nil {
		return e, res, err
	}
	if err := e.db.Check(); err != nil {
		return e, res, fmt.Errorf("check after the measured phase: %w", err)
	}

	// Crash, timed restart, verification.
	if cfg.workload == wlFileReorg {
		if err := e.abortedReorganization(); err != nil {
			return e, res, err
		}
	}
	if err := e.crashAndRecover(res); err != nil {
		return e, res, err
	}
	if cfg.workload == wlFileReorg {
		if !res.restart.UnitCompleted {
			return e, res, errors.New("forward recovery did not complete the in-flight unit")
		}
		// Resume the reorganization where the crash cut it off.
		rc := repro.DefaultReorgConfig()
		rc.StartKey = res.restart.ReorgLK
		if _, err := e.db.Reorganize(rc); err != nil {
			return e, res, fmt.Errorf("resume from ReorgLK: %w", err)
		}
		if err := e.checkAndVerify("after the resumed reorganization"); err != nil {
			return e, res, err
		}
	}
	res.verified = true

	if cfg.traced {
		tr := e.cl[0].tr
		tr.add(e.workloadSpan, 0, spWorkload, spWorkload, 0, started, e.now())
		for _, c := range e.cl {
			res.tracers = append(res.tracers, c.tr)
		}
		if e.daemon.tr != nil {
			res.tracers = append(res.tracers, e.daemon.tr)
		}
		if cfg.spans != "" {
			if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
				return e, res, err
			}
			res.spansKept, res.spansDropped, err = writeSpans(cfg.spans, res.tracers)
			if err != nil {
				return e, res, err
			}
			res.spanFile = cfg.spans
		}
	}
	return e, res, nil
}

// abortedReorganization sparsifies once more and starts a (K+1)-th
// reorganization that dies, through OnEvent, inside a fixed pass-1
// unit: records moved, unit not ended. The crash that follows leaves
// forward recovery exactly one unit to finish.
func (e *env) abortedReorganization() error {
	c := e.cl[0]
	c.runTape(reorgSparsifyTape(len(e.shadow)))
	c.abortAtMoved = reorgAbortAtUnit / e.cfg.scale
	if c.abortAtMoved < 2 {
		c.abortAtMoved = 2
	}
	c.movedSeen = 0
	c.setPhase(phReorganize)
	err := c.reorganize(repro.DefaultReorgConfig())
	c.abortAtMoved = 0
	if err == nil {
		return fmt.Errorf("the scripted crash inside unit %d never fired", reorgAbortAtUnit/e.cfg.scale)
	}
	if !errors.Is(err, errInjectedCrash) {
		return fmt.Errorf("aborted reorganization: %w", err)
	}
	// The failure strikes just after a log force (as another client's
	// commit would cause): the unit's BEGIN and MOVE records are durable,
	// its END was never written.
	return e.db.Tree().Log().Flush()
}

// crashAndRecover drops the pool and the unforced log tail, times
// Restart, then checks the recovered tree against the shadow model.
func (e *env) crashAndRecover(res *result) error {
	res.replayBytes = e.db.Tree().Log().BytesAppended() - e.checkpointWAL
	c := e.cl[0]
	c.setPhase(phRecover)
	e.db.Crash()
	t0 := e.now()
	info, err := e.db.Restart()
	t1 := e.now()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	res.recoverySec = float64(t1-t0) / 1e9
	res.restart = info
	if c.tr != nil {
		c.tr.add(c.tr.newID(), c.phase, spRestart, spPhase, 0, t0, t1)
	}
	c.closePhase(e.now())
	if d := e.db.Daemon(); d != nil {
		d.Stop() // Restart started a fresh daemon; the checks need a quiescent tree
	}
	return e.checkAndVerify("after restart")
}

func (e *env) checkAndVerify(when string) error {
	if err := e.db.Check(); err != nil {
		return fmt.Errorf("check %s: %w", when, err)
	}
	if err := verifyShadow(e.db, e.shadow, e.vals); err != nil {
		return fmt.Errorf("%s: %w", when, err)
	}
	return nil
}

// obsOverhead replays a prefix-sized mem-hot tape against two databases,
// observability on and off, alternating A/B, and returns
// 1 - ops/s(on) / ops/s(off).
func obsOverhead(cfg config) (float64, error) {
	const rounds = 3
	cfg.traced = false
	records := fullRecords / cfg.scale
	nOps := 150_000 / cfg.scale
	loaded := make([]uint32, records)
	for k := range loaded {
		loaded[k] = uint32(k)
	}
	var envs [2]*env
	for i := range envs {
		e := &env{cfg: cfg, epoch: time.Now(), vals: materialiseValues(),
			keys: materialiseKeys(records), shadow: make([]uint16, records)}
		e.opts = repro.Options{PageSize: pageSize, DisableObservability: i == 1}
		var err error
		if e.db, err = repro.Open(e.opts); err != nil {
			return 0, err
		}
		defer e.teardown()
		if err := e.load(loaded); err != nil {
			return 0, err
		}
		for c := 0; c < cfg.clients; c++ {
			e.cl = append(e.cl, newClient(e, c))
		}
		envs[i] = e
	}
	var rate [2][]float64
	for round := 0; round < rounds; round++ {
		for i, e := range envs {
			seg := make([]*tape, cfg.clients)
			for c := range seg {
				seg[c] = memHotTape(cfg.seed+int64(round), c, cfg.clients, records, nOps)
			}
			before := e.measuredNanos
			if err := e.runSegment(seg, false); err != nil {
				return 0, err
			}
			rate[i] = append(rate[i], float64(nOps*cfg.clients)/(float64(e.measuredNanos-before)/1e9))
		}
	}
	for _, e := range envs {
		for _, c := range e.cl {
			if c.rec.failed > 0 {
				return 0, fmt.Errorf("observability A/B: %d operations failed", c.rec.failed)
			}
		}
	}
	return 1 - ratio(median(rate[0]), median(rate[1])), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
