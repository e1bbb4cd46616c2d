// Package storage provides the page-level substrate the reorganization
// algorithms run on: fixed-size pages with a common header, stable
// storage with crash semantics and I/O accounting, a buffer pool that
// enforces the write-ahead-log rule and Lomet–Tuttle careful-write
// ordering, and a free-space map supporting the paper's
// Find-Free-Space placement heuristic.
//
// Stable storage is the Disk interface, with two implementations.
// MemDisk is an in-memory array of page images with exact crash
// semantics: only page images that were explicitly flushed (and the
// flushed prefix of the log) survive a Crash; everything held in
// buffer-pool frames is lost. This is the property the paper's
// recovery and careful-writing arguments depend on, so the simulation
// preserves the behaviour the paper's testbed provided. FileDisk is a
// real page file: each page slot carries a CRC32C frame header
// (checksum, page-id echo, pageLSN echo) so a torn or rotted image is
// detected on read as a typed ErrCorruptPage — never a panic or a
// silently wrong answer — and Sync issues a real fsync, which the
// pager uses as the careful-write barrier between dependency flushes
// and the dependent page's own write.
//
// I/O accounting (IOStats) follows a simple single-arm seek model: the
// disk remembers the id of the last page read, and a read of any page
// other than the immediate successor charges one seek. Sequential
// range scans over contiguously-placed leaves therefore cost one seek
// plus N transfers, while the same scan over a fragmented tree costs
// up to N seeks — exactly the contiguity benefit pass 2 of the
// reorganization buys (paper §6, range-scan experiment E8). Writes do
// not move the model's arm: the simulated device writes through a
// cache, as the paper's testbed did, so write scheduling is not
// charged against read locality. IOStats.Snapshot exposes reads, writes
// and seeks together for tools that report all three.
//
// Fault injection: Disk.Read, Disk.Write and the pager's flush/evict
// paths consult an optional fault.Injector (disk.read, disk.write,
// pager.flush, pager.evict). disk.write is tear-capable — a torn crash
// leaves only the first half of the new image stable, modelling a
// power failure mid-sector-run.
package storage
