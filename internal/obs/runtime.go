package obs

import rtmetrics "runtime/metrics"

// mutexWaitMetric is the Go runtime's total time goroutines have spent
// blocked on a sync.Mutex or sync.RWMutex, process-wide.
const mutexWaitMetric = "/sync/mutex/wait/total:seconds"

// MutexWaitNanos returns the runtime's cumulative mutex wait time in
// nanoseconds (0 if the runtime does not export it). It only grows, so
// the difference between two readings is the contention between them.
func MutexWaitNanos() int64 {
	s := []rtmetrics.Sample{{Name: mutexWaitMetric}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return int64(s[0].Value.Float64() * 1e9)
}
