// Package nolockio is the analyzer fixture: stub Disk/Injector/Log
// types carry the blocking method names the analyzer knows, and a pool
// struct holds tracked (mu) and exempt (flushMu) mutexes.
package nolockio

import (
	"os"
	"sync"
	"time"
)

// Injector stubs the fault-injection registry.
type Injector struct{}

// Hit stubs a fault point.
func (i *Injector) Hit(p int) error { return nil }

// Disk stubs the simulated disk.
type Disk struct{}

// Write stubs a page write.
func (d *Disk) Write(id int, b []byte) error { return nil }

// Log stubs the WAL.
type Log struct{}

// FlushTo stubs a log force.
func (l *Log) FlushTo(lsn uint64) error { return nil }

// pool mimics a buffer-pool shard with its tracked mutex, an exempt
// flush mutex, and handles to the blocking subsystems.
type pool struct {
	mu      sync.Mutex
	flushMu sync.Mutex
	disk    *Disk
	inj     *Injector
	log     *Log
}

// badSleep sleeps with the shard mutex held.
func (p *pool) badSleep() {
	p.mu.Lock()
	time.Sleep(time.Millisecond) // want `call to time\.Sleep while holding p\.mu`
	p.mu.Unlock()
}

// badWrite does disk I/O under the mutex; the deferred unlock never
// closes the held region.
func (p *pool) badWrite(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.disk.Write(1, b) // want `call to Disk\.Write while holding p\.mu`
}

// badFault hits a fault point under the mutex.
func (p *pool) badFault() {
	p.mu.Lock()
	_ = p.inj.Hit(1) // want `call to Injector\.Hit while holding p\.mu`
	p.mu.Unlock()
}

// badForce forces the log under the mutex.
func (p *pool) badForce() {
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.log.FlushTo(10) // want `call to Log\.FlushTo while holding p\.mu`
}

// badLockedHelper declares via annotation that it runs with p.mu held.
//
//vet:holds(p.mu)
func (p *pool) badLockedHelper(b []byte) {
	_ = p.disk.Write(1, b) // want `call to Disk\.Write while holding p\.mu`
}

// goodUnlockFirst releases before the I/O.
func (p *pool) goodUnlockFirst(b []byte) {
	p.mu.Lock()
	p.mu.Unlock()
	_ = p.disk.Write(1, b)
}

// goodFlushMu holds only the exempt per-frame flush mutex.
func (p *pool) goodFlushMu(b []byte) {
	p.flushMu.Lock()
	_ = p.disk.Write(1, b)
	p.flushMu.Unlock()
}

// goodSuppressed holds the mutex across a write under an audited
// annotation (no want comment: the suppression filters it).
func (p *pool) goodSuppressed(b []byte) {
	p.mu.Lock()
	//vet:allow(nolockio) -- fixture: the mutex is the simulated device's own serialization
	_ = p.disk.Write(1, b)
	p.mu.Unlock()
}

// SegmentedLog stubs the WAL's file device.
type SegmentedLog struct{ cur *os.File }

// write stubs framing the tail into the page cache: allowed under mu.
func (s *SegmentedLog) write(b []byte) (int, error) { return len(b), nil }

// sync stubs the device fsync.
func (s *SegmentedLog) sync(f *os.File) error { return nil }

// rotate stubs swapping a full segment for a fresh one.
func (s *SegmentedLog) rotate(firstLSN uint64) error { return nil }

// wlog mimics the WAL: a mutex, a file device, two watermarks.
type wlog struct {
	mu      sync.Mutex
	seg     *SegmentedLog
	written int
	flushed int
}

// badFsyncUnderMu is the force path this repo used to have: the fsync
// runs with the log mutex held, so every appender queues behind it.
func (l *wlog) badFsyncUnderMu(tail []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, _ := l.seg.write(tail)
	l.written += n
	if err := l.seg.cur.Sync(); err != nil { // want `call to File\.Sync while holding l\.mu`
		return err
	}
	l.flushed = l.written
	return nil
}

// badDeviceCallsUnderMu reaches the same fsync through the device's own
// methods, and writes to the segment file directly.
//
//vet:holds(l.mu)
func (l *wlog) badDeviceCallsUnderMu(tail []byte) {
	_ = l.seg.sync(l.seg.cur)         // want `call to SegmentedLog\.sync while holding l\.mu`
	_ = l.seg.rotate(1)               // want `call to SegmentedLog\.rotate while holding l\.mu`
	_, _ = l.seg.cur.WriteAt(tail, 0) // want `call to File\.WriteAt while holding l\.mu`
	_ = l.seg.cur.Truncate(0)         // want `call to File\.Truncate while holding l\.mu`
}

// goodPipelinedForce writes under the mutex, syncs with it released and
// publishes under it again; the deferred re-lock is not a held region.
//
//vet:holds(l.mu)
func (l *wlog) goodPipelinedForce(tail []byte) (err error) {
	n, _ := l.seg.write(tail)
	l.written += n
	end, f := l.written, l.seg.cur
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		if err == nil && end > l.flushed {
			l.flushed = end
		}
	}()
	return l.seg.sync(f)
}

// FileDisk stubs the page file: its mutex is the file's own
// serialization, so positional I/O under it is the design.
type FileDisk struct {
	mu sync.Mutex
	f  *os.File
}

// goodDeviceMutex writes and syncs the page file under the disk's mutex.
func (d *FileDisk) goodDeviceMutex(b []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.f.WriteAt(b, 0); err != nil {
		return err
	}
	return d.f.Sync()
}

// badDeviceMutexSleep shows the exemption covers the file calls only.
func (d *FileDisk) badDeviceMutexSleep() {
	d.mu.Lock()
	time.Sleep(time.Millisecond) // want `call to time\.Sleep while holding d\.mu`
	d.mu.Unlock()
}
