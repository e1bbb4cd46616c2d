// Package fault is a process-wide, deterministic fault-injection
// registry. Named fault points are threaded through the storage and
// reorganization layers (disk.read, disk.write, wal.append, wal.force,
// wal.truncate, pager.flush, pager.evict, and the reorganizer's
// "reorg.*" stages);
// each point can be armed with a schedule that crashes the simulated
// system on its N-th hit, returns a transient I/O error with a seeded
// probability, or tears a write (first half reaches stable storage,
// then the crash).
//
// A crash is delivered as a panic carrying *Crash so it unwinds the
// whole operation stack exactly like a machine failure would: no error
// path gets a chance to "handle" it. The crash harness catches it with
// Catch, then drives the usual Crash()/Restart() recovery protocol.
//
// Hit counting is deterministic for a deterministic workload: the
// injector keeps a global hit sequence number and per-point counters,
// and can record a trace of every hit (sweep enumeration mode). The
// same scripted workload re-run with a crash armed at hit index i then
// fails at exactly the same operation — the basis of the crash driver
// in internal/check, behind the exhaustive crash-schedule sweep and the
// equivalence schedules.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Fault-point names installed in the storage and WAL layers. The
// reorganizer's points are derived from its event stages as
// "reorg.<stage>" (e.g. "reorg.compact.begin", "reorg.pass3.switch.pre").
const (
	DiskRead   = "disk.read"
	DiskWrite  = "disk.write"
	WALAppend  = "wal.append"
	WALForce   = "wal.force"
	PagerFlush = "pager.flush"
	PagerEvict = "pager.evict"
	// WALTruncate fires before the file device deletes each WAL segment
	// that a checkpoint's retention horizon has passed (the in-memory
	// device frees its chunks atomically under the log mutex and has no
	// such point).
	WALTruncate = "wal.truncate"
	// DaemonTick fires at the top of every reorganization-daemon policy
	// tick; DaemonUnitStart fires just before the daemon hands an
	// increment to the reorganizer. Together they let the crash sweep
	// treat daemon-initiated units like manual ones.
	DaemonTick      = "daemon.tick"
	DaemonUnitStart = "daemon.unit.start"
)

// ErrInjected marks a transient injected I/O error. The storage layer
// absorbs these with bounded retry and jittered backoff; only after the
// retry budget is exhausted does a typed permanent error surface.
var ErrInjected = errors.New("fault: injected transient I/O error")

// IsTransient reports whether err is an injected transient fault that
// a caller should absorb by retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrInjected) }

// Kind selects what an armed schedule does when it fires.
type Kind int

const (
	// KindError returns a transient ErrInjected from the fault point.
	KindError Kind = iota
	// KindCrash panics with *Crash: the simulated machine fails at
	// this point and only stable storage survives.
	KindCrash
	// KindTorn is KindCrash at a tear-capable point (disk.write,
	// wal.force): the first half of the write reaches stable storage
	// before the crash.
	KindTorn
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindCrash:
		return "crash"
	case KindTorn:
		return "torn"
	default:
		return "unknown"
	}
}

// Schedule arms one fault point.
type Schedule struct {
	Kind Kind
	// OnHit fires on the N-th hit (1-based) of the point. With
	// MaxFires > 0 the schedule keeps firing for hits
	// [OnHit, OnHit+MaxFires).
	OnHit int64
	// Prob fires on any hit with this probability under the
	// injector's seeded RNG (used when OnHit is 0).
	Prob float64
	// MaxFires caps the number of firings (0 = once for OnHit,
	// unlimited for Prob).
	MaxFires int
}

// Crash is the panic payload of KindCrash/KindTorn: the point that
// fired, its global and per-point hit indices, and whether the write
// in flight was torn.
type Crash struct {
	Point string
	Seq   int64 // global hit index across all points
	Hit   int64 // per-point hit index
	Torn  bool
}

func (c *Crash) Error() string {
	return fmt.Sprintf("fault: injected crash at %s (hit %d, seq %d, torn %v)",
		c.Point, c.Hit, c.Seq, c.Torn)
}

// FailStop builds the crash payload for a fail-stop condition detected
// by a component itself (e.g. the WAL's append retry budget running
// out: a database that cannot write its log must halt).
func FailStop(point string) *Crash {
	return &Crash{Point: point + " (fail-stop)"}
}

// sched is an armed schedule plus its firing count.
type sched struct {
	Schedule
	fires int
}

// Injector is the registry. The zero value of *Injector (nil) is a
// valid no-op injector, so components hold a possibly-nil pointer and
// call Hit unconditionally. All methods are safe for concurrent use.
type Injector struct {
	mu        sync.Mutex
	rng       *rand.Rand
	seq       int64
	hits      map[string]int64
	points    map[string]*sched
	crashAt   int64 // global hit index to crash at (0 = disabled)
	crashTorn bool
	tracing   bool
	trace     []string
}

// New creates an injector whose probabilistic schedules draw from a
// RNG seeded with seed (deterministic under test).
func New(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		hits:   make(map[string]int64),
		points: make(map[string]*sched),
	}
}

// Arm installs (replacing) a schedule on one fault point.
func (in *Injector) Arm(point string, s Schedule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points[point] = &sched{Schedule: s}
}

// ArmCrashAtSeq arms a crash at the n-th global hit across all points
// (1-based); with torn set, a tear-capable point tears its write
// first. This is the sweep's primitive.
func (in *Injector) ArmCrashAtSeq(n int64, torn bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt = n
	in.crashTorn = torn
}

// Disarm removes every schedule (counters keep counting). Recovery
// runs disarmed so a restart is never re-injected.
func (in *Injector) Disarm() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points = make(map[string]*sched)
	in.crashAt = 0
	in.crashTorn = false
}

// Reset disarms and zeroes all counters and the trace.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points = make(map[string]*sched)
	in.crashAt = 0
	in.crashTorn = false
	in.seq = 0
	in.hits = make(map[string]int64)
	in.trace = nil
}

// StartTrace begins recording the point name of every hit.
func (in *Injector) StartTrace() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tracing = true
	in.trace = nil
}

// StopTrace ends recording and returns the trace (hit i is trace[i-1]).
func (in *Injector) StopTrace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tracing = false
	out := in.trace
	in.trace = nil
	return out
}

// Seq returns the global hit count so far.
func (in *Injector) Seq() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// HitCounts returns a copy of the per-point hit counters.
func (in *Injector) HitCounts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.hits))
	for k, v := range in.hits {
		out[k] = v
	}
	return out
}

// Points returns the names of all points hit so far, sorted.
func (in *Injector) Points() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.hits))
	for k := range in.hits {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Hit reports one arrival at a fault point that cannot tear.
func (in *Injector) Hit(point string) error { return in.HitTorn(point, nil) }

// HitTorn reports one arrival at a fault point. At tear-capable points
// the caller passes torn, a closure that makes the first half of the
// in-flight write stable; it is invoked (under the caller's locks)
// right before a torn crash panics.
func (in *Injector) HitTorn(point string, torn func()) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	in.hits[point]++
	hit := in.hits[point]
	if in.tracing {
		in.trace = append(in.trace, point)
	}
	if in.crashAt != 0 && in.seq == in.crashAt {
		c := &Crash{Point: point, Seq: in.seq, Hit: hit,
			Torn: in.crashTorn && torn != nil}
		if c.Torn {
			torn()
		}
		panic(c)
	}
	s, ok := in.points[point]
	if !ok {
		return nil
	}
	fire := false
	switch {
	case s.OnHit > 0:
		max := int64(s.MaxFires)
		if max <= 0 {
			max = 1
		}
		fire = hit >= s.OnHit && hit < s.OnHit+max
	case s.Prob > 0:
		fire = (s.MaxFires <= 0 || s.fires < s.MaxFires) && in.rng.Float64() < s.Prob
	}
	if !fire {
		return nil
	}
	s.fires++
	switch s.Kind {
	case KindError:
		return fmt.Errorf("%s hit %d: %w", point, hit, ErrInjected)
	default: // KindCrash, KindTorn
		c := &Crash{Point: point, Seq: in.seq, Hit: hit,
			Torn: s.Kind == KindTorn && torn != nil}
		if c.Torn {
			torn()
		}
		panic(c)
	}
}

// AsCrash extracts the *Crash from a recovered panic value.
func AsCrash(r any) (*Crash, bool) {
	c, ok := r.(*Crash)
	return c, ok
}

// Catch runs fn, converting an injected-crash panic into a returned
// *Crash. Any other panic is re-raised.
func Catch(fn func() error) (crash *Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := AsCrash(r); ok {
				crash = c
				return
			}
			panic(r)
		}
	}()
	err = fn()
	return
}
