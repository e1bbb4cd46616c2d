// Command btree-inspect builds a demonstration database, optionally
// sparsifies and reorganizes it, and dumps the physical state of the
// tree: height, per-level page counts, leaf fill-factor histogram, and
// the on-disk ordering of the leaves. It is the visual companion to
// the paper's Figure 1.
//
// Usage:
//
//	btree-inspect [-records N] [-keep F] [-reorg] [-pagesize N]
//	btree-inspect -backend file -dir /path/to/db ...
//
// With -backend file the database lives in real files under -dir (a
// page file with checksummed frames plus rotated WAL segments); an
// existing directory is crash-recovered and inspected as-is, so the
// tool doubles as an offline inspector for file-backed databases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	repro "repro"
	"repro/internal/btree"
	"repro/internal/daemon"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	records := flag.Int("records", 10000, "records to load")
	keep := flag.Float64("keep", 0.25, "fraction of records kept after sparsification (1 = skip)")
	reorg := flag.Bool("reorg", false, "run the three-pass reorganization before inspecting")
	daemonOn := flag.Bool("daemon", false, "reorganize via the autonomous daemon instead: manual ticks drained to quiescence, one line per policy decision")
	pageSize := flag.Int("pagesize", 4096, "page size in bytes")
	backend := flag.String("backend", "mem", "storage backend: mem or file")
	dir := flag.String("dir", "", "file backend: database directory (created or recovered)")
	metricsDump := flag.Bool("metrics", false, "dump counters, latency quantiles, occupancy gauges and the trace ring")
	jsonOut := flag.Bool("json", false, "with -metrics: emit one machine-readable JSON document on stdout")
	flag.Parse()

	// With -json the only stdout output is the JSON document; progress
	// chatter moves to stderr so pipelines can consume the result.
	say := func(format string, args ...any) {
		if *jsonOut {
			fmt.Fprintf(os.Stderr, format, args...)
			return
		}
		fmt.Printf(format, args...)
	}

	opts := repro.Options{PageSize: *pageSize}
	if *daemonOn {
		dcfg := daemon.DefaultConfig()
		dcfg.Manual = true
		dcfg.Ranges = 8
		dcfg.MinLeaves = 2
		dcfg.OnTick = func(info daemon.TickInfo) {
			d := info.Decision
			if !d.Run {
				say("  tick %-3d %-9s\n", info.Tick, d.Reason)
				return
			}
			say("  tick %-3d %-9s [%q, %q) budget=%d ran=%d stopped=%v\n",
				info.Tick, d.Reason, d.StartKey, d.EndKey, d.MaxUnits,
				info.Result.UnitsRun, info.Result.Stopped)
		}
		opts.Daemon = &dcfg
	}
	existing := false
	switch *backend {
	case "mem":
	case "file":
		if *dir == "" {
			log.Fatal("-backend file requires -dir")
		}
		opts.Dir = *dir
		if fi, err := os.Stat(filepath.Join(*dir, "pages.db")); err == nil && fi.Size() > 0 {
			existing = true
		}
	default:
		log.Fatalf("unknown backend %q (want mem or file)", *backend)
	}
	db, err := repro.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
	}()
	if existing {
		say("recovered existing database in %s; inspecting as-is\n", *dir)
	} else {
		say("loading %d records (%d-byte pages)...\n", *records, *pageSize)
		if err := workload.Load(db, *records, 48, "random", 42); err != nil {
			log.Fatal(err)
		}
	}
	if *keep < 1 && !existing {
		say("sparsifying to %.0f%%...\n", *keep*100)
		if _, err := workload.Sparsify(db, *records, *keep); err != nil {
			log.Fatal(err)
		}
	}
	if *reorg {
		say("reorganizing (compact, swap, rebuild)...\n")
		m, err := db.Reorganize(repro.DefaultReorgConfig())
		if err != nil {
			log.Fatal(err)
		}
		say("reorganizer counters:\n%s", m)
	}
	if *daemonOn {
		say("draining the autonomous daemon (manual ticks):\n")
		d := db.Daemon()
		idle := 0
		for ticks := 0; idle < 3; ticks++ {
			if ticks > 400 {
				log.Fatalf("daemon never went idle within %d ticks", ticks)
			}
			before := d.Metrics().Get(metrics.DaemonIncrements)
			if err := d.Tick(); err != nil {
				log.Fatalf("daemon tick: %v", err)
			}
			if d.Metrics().Get(metrics.DaemonIncrements) == before {
				idle++
			} else {
				idle = 0
			}
		}
		say("daemon idle after %d units in %d increments\n",
			d.Metrics().Get(metrics.DaemonUnits),
			d.Metrics().Get(metrics.DaemonIncrements))
	}
	if err := db.Check(); err != nil {
		log.Fatalf("invariant check: %v", err)
	}
	if *jsonOut {
		if !*metricsDump {
			log.Fatal("-json requires -metrics")
		}
		dumpMetricsJSON(db)
		return
	}
	dump(db)
	if *metricsDump {
		dumpMetrics(db)
	}
}

// dumpMetricsJSON emits the full observability state as one JSON
// document: counters, latency quantiles, occupancy gauges, write
// amplification and the trace-ring events.
func dumpMetricsJSON(db *repro.DB) {
	doc := struct {
		Metrics obs.MetricsSnapshot `json:"metrics"`
		Trace   []obs.Event         `json:"trace"`
	}{Metrics: db.MetricsSnapshot(), Trace: db.TraceSnapshot()}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// dumpMetrics renders the observability state for humans: one quantile
// row per operation kind, the occupancy cells, and the trace tail.
func dumpMetrics(db *repro.DB) {
	snap := db.MetricsSnapshot()
	fmt.Println("\nlatency quantiles (ns):")
	fmt.Printf("  %-14s %9s %10s %10s %10s %10s %10s\n",
		"op", "count", "p50", "p90", "p99", "p999", "max")
	for _, r := range snap.Latencies {
		fmt.Printf("  %-14s %9d %10d %10d %10d %10d %10d\n", r.Op, r.Count,
			r.P50.Nanoseconds(), r.P90.Nanoseconds(), r.P99.Nanoseconds(),
			r.P999.Nanoseconds(), r.Max.Nanoseconds())
	}

	occ, err := db.Occupancy(8)
	if err != nil {
		log.Fatalf("occupancy: %v", err)
	}
	fmt.Println("\noccupancy by key range:")
	fmt.Printf("  %-12s %7s %8s %8s %8s %8s %7s\n",
		"lo-key", "leaves", "records", "avgfill", "minfill", "contig", "invers")
	for _, c := range occ.Ranges {
		lo := c.LoKey
		if len(lo) > 12 {
			lo = lo[:12]
		}
		fmt.Printf("  %-12s %7d %8d %8.3f %8.3f %7d/%-2d %5d\n", lo,
			c.Leaves, c.Records, c.AvgFill, c.MinFill, c.ContigPairs, c.Pairs,
			c.Inversions)
	}
	fmt.Printf("free space: high-water %d, allocated %d, free %d in %d runs (largest %d)\n",
		occ.Free.HighWater, occ.Free.Allocated, occ.Free.Free,
		occ.Free.FreeRuns, occ.Free.LargestFreeRun)

	fmt.Printf("\nruntime mutex wait: %d ns in total\n", snap.Counters[metrics.RuntimeMutexWaitNs])
	fmt.Printf("reorganizer walk retries: pass 1 %d, pass 2 %d, pass 3 %d\n",
		snap.Counters[metrics.Pass1WalkRetries], snap.Counters[metrics.Pass2WalkRetries],
		snap.Counters[metrics.Pass3WalkRetries])

	wa := snap.WriteAmp
	fmt.Printf("\nwrite amplification: logical %d B, WAL %d B (%.2fx), pages %d B (%.2fx), total %.2fx\n",
		wa.LogicalBytes, wa.WALBytes, wa.WALAmp, wa.PageBytes, wa.PageAmp, wa.TotalAmp)

	trace := db.TraceSnapshot()
	const tail = 20
	fmt.Printf("\ntrace ring: %d events held", len(trace))
	if len(trace) > tail {
		fmt.Printf(" (last %d shown)", tail)
		trace = trace[len(trace)-tail:]
	}
	fmt.Println()
	for _, e := range trace {
		fmt.Printf("  #%-6d %-18s a=%-8d b=%d\n", e.Seq, e.Name, e.A, e.B)
	}
}

func dump(db *repro.DB) {
	s, err := db.GatherStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheight          %d\n", s.Height)
	fmt.Printf("internal pages  %d\n", s.InternalPages)
	fmt.Printf("leaf pages      %d\n", s.LeafPages)
	fmt.Printf("records         %d\n", s.Records)
	fmt.Printf("avg leaf fill   %.3f (min %.3f)\n", s.AvgLeafFill, s.MinLeafFill)
	fmt.Printf("leaf inversions %d of %d adjacent pairs\n", s.OutOfOrderPairs, len(s.LeafIDs)-1)
	fmt.Printf("contiguous runs %d of %d adjacent pairs\n", s.ContiguousPairs, len(s.LeafIDs)-1)

	hist, levels, err := shape(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nleaf fill histogram:")
	for i, n := range hist {
		fmt.Printf("  %.1f-%.1f %7d\n", float64(i)/10, float64(i+1)/10, n)
	}
	fmt.Printf("  (avg %.2f, min %.2f over %d leaves)\n", s.AvgLeafFill, s.MinLeafFill, s.LeafPages)

	// On-disk layout of the leaves in key order.
	fmt.Println("\nleaves in key order (page ids, * marks an inversion):")
	var b strings.Builder
	for i, id := range s.LeafIDs {
		if i > 0 && id < s.LeafIDs[i-1] {
			fmt.Fprintf(&b, "*%d ", id)
		} else {
			fmt.Fprintf(&b, "%d ", id)
		}
		if (i+1)%16 == 0 {
			b.WriteString("\n")
		}
	}
	fmt.Println(b.String())

	dumpLevels(levels)

	ds := db.IOStats()
	reads, writes, seeks := ds.Reads, ds.Writes, ds.Seeks
	fmt.Printf("\ndisk I/O        %d reads, %d writes, %d seeks\n", reads, writes, seeks)
	fmt.Printf("log volume      %d bytes\n", db.LogBytes())

	fmt.Println("\nperf counters (pool shards, WAL group commit, media I/O):")
	fmt.Print(db.PerfCounters())
}

// level is one internal level's shape: pages, entries, separator
// bytes, and the bytes prefix truncation saved versus posting each
// child's full low key.
type level struct {
	pages, entries, sepBytes, saved int
}

// shape walks the tree once for the leaf fill histogram (ten buckets of
// 0.1) and the internal levels, root level first.
func shape(db *repro.DB) (hist [10]int, levels []level, err error) {
	t := db.Tree()
	root, _ := t.Root()
	err = btree.Walk(t.Pager(), root, func(n *btree.Node) (btree.Step, error) {
		p := n.Page
		// Slot 0 carries the inherited low mark (often ""), not a posted
		// separator; only the other entries were truncated, to n.Low.
		if n.Slot > 0 && p.NumSlots() > 0 {
			if low := kv.SlotKey(p, 0); len(low) > len(n.Low) {
				levels[len(levels)-n.Level-1].saved += len(low) - len(n.Low)
			}
		}
		if p.Type() == storage.PageLeaf {
			hist[min(int(p.FillFactor()*10), 9)]++
			return btree.Descend, nil
		}
		if n.Slot < 0 {
			levels = make([]level, n.Level)
		}
		l := &levels[len(levels)-n.Level]
		l.pages++
		l.entries += p.NumSlots()
		for i := 0; i < p.NumSlots(); i++ {
			l.sepBytes += len(kv.SlotKey(p, i))
		}
		return btree.Descend, nil
	})
	return hist, levels, err
}

// dumpLevels prints, per internal level, the page count, average
// fan-out, average separator length, and how many bytes prefix
// truncation saved versus posting each child's full low key (the v2
// layout stores the shortest prefix that still routes; see DESIGN.md
// §12).
func dumpLevels(levels []level) {
	fmt.Println("\ninternal levels (separator truncation vs child low keys):")
	fmt.Printf("  %-5s %6s %8s %8s %10s %10s\n",
		"level", "pages", "entries", "fan-out", "sep-bytes", "saved")
	for i, l := range levels {
		avgSep := 0.0
		if l.entries > 0 {
			avgSep = float64(l.sepBytes) / float64(l.entries)
		}
		fmt.Printf("  %-5d %6d %8d %8.1f %10.1f %10d\n",
			len(levels)-i, l.pages, l.entries, float64(l.entries)/float64(l.pages), avgSep, l.saved)
	}
}
