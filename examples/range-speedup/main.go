// Range speedup: the paper's §1 motivation — sparse trees make range
// queries pay extra reads and seeks; reorganization restores them.
// A cold(ish) buffer pool makes the physical I/O visible: the example
// reports reads and seeks per scan before and after each pass.
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/workload"
)

const (
	nRecords = 10000
	poolSize = 24 // small pool so scans hit the simulated disk
	scanLen  = 200
	scans    = 100
)

func measure(db *repro.DB, label string) {
	stats, _ := db.GatherStats()
	before := db.IOStats()
	for i := 0; i < scans; i++ {
		lo := (i * 7919) % nRecords
		count := 0
		err := db.Scan(workload.Key(lo), nil, func(_, _ []byte) bool {
			count++
			return count < scanLen
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	after := db.IOStats()
	fmt.Printf("%-22s %3d leaves  fill %.2f  %2d inversions  %6.2f reads/scan  %6.2f seeks/scan\n",
		label, stats.LeafPages, stats.AvgLeafFill, stats.OutOfOrderPairs,
		float64(after.Reads-before.Reads)/scans, float64(after.Seeks-before.Seeks)/scans)
}

func main() {
	db, err := repro.Open(repro.Options{PageSize: 4096, BufferPoolPages: poolSize})
	if err != nil {
		log.Fatal(err)
	}
	if err := workload.Load(db, nRecords, 48, "random", 11); err != nil {
		log.Fatal(err)
	}
	if _, err := workload.Sparsify(db, nRecords, 0.25); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scanning %d x %d records with a %d-page buffer pool\n\n",
		scans, scanLen, poolSize)
	measure(db, "sparse (before)")

	r := db.Reorganizer(repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: true})
	if err := r.CompactLeaves(); err != nil {
		log.Fatal(err)
	}
	measure(db, "after pass 1")

	if err := r.SwapLeaves(); err != nil {
		log.Fatal(err)
	}
	measure(db, "after pass 2")

	if err := r.RebuildInternal(); err != nil {
		log.Fatal(err)
	}
	measure(db, "after pass 3")

	if err := db.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n(pass 2 is the optional swap pass: note it removes the seeks,")
	fmt.Println(" which is exactly why the paper lets you run it only when range")
	fmt.Println(" performance has degraded)")
}
