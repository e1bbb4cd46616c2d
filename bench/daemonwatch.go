package main

import (
	"sync/atomic"
	"time"

	"repro/internal/daemon"
)

// daemonStats watches the reorganization daemon through the two seams
// it already offers as public configuration: Options.DaemonClock (the
// loop asks the clock for its next timer when a tick has ended, so the
// timer's due time is the next tick's start) and daemon.Config.OnTick
// (called at the end of every tick). A tick's duration is OnTick minus
// the due time, which charges timer latency to the tick. After and
// onTick both run on the daemon's own goroutine; the bench reads the
// totals only after Daemon.Stop has returned.
type daemonStats struct {
	env      *env
	tr       *tracer
	on       atomic.Bool
	due      int64
	tick     hist
	busyNs   int64
	from, to int64
}

func (d *daemonStats) Now() time.Time { return time.Now() }

func (d *daemonStats) After(dur time.Duration) <-chan time.Time {
	d.due = d.env.now() + int64(dur)
	return time.After(dur)
}

func (d *daemonStats) onTick(daemon.TickInfo) {
	if !d.on.Load() || d.due == 0 {
		return
	}
	now := d.env.now()
	start := d.due
	if start > now {
		start = now
	}
	d.tick.record(now - start)
	d.busyNs += now - start
	if d.tr != nil {
		d.tr.add(d.tr.newID(), 0, spDaemonTick, spWorkload, 0, start, now)
	}
}

// start opens the window in which ticks are recorded (the measured
// phase); a workload without a daemon never sees a tick.
func (d *daemonStats) start(e *env) {
	if d.env == nil {
		return
	}
	if e.cfg.traced {
		d.tr = newTracer(len(e.cl))
	}
	d.from = e.now()
	d.on.Store(true)
}

func (d *daemonStats) stop() {
	if d.on.Swap(false) {
		d.to = d.env.now()
	}
}
