package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/wal"
)

// TestUnitShapePinned pins what a reorganization unit looks like from
// outside: the OnEvent stages each unit type fires (bench/ and the crash
// harnesses count them) and the exact log a seeded three-pass run writes.
// The constants were captured before pass 1's compaction unit, pass 2's
// move unit and forward recovery became one body; a refactor of the
// unit must leave them alone.
func TestUnitShapePinned(t *testing.T) {
	e := newEnv(t, 1024)
	// A random load order leaves the leaves out of key order on disk, so
	// pass 2 has both moves and swaps to do.
	const total, keep = 2000, 4
	for _, i := range rand.New(rand.NewSource(1)).Perm(total) {
		e.put(t, i)
	}
	for i := 0; i < total; i++ {
		if !sparsePresent(keep)(i) {
			e.del(t, i)
		}
	}

	var stages []string
	cfg := DefaultConfig()
	cfg.OnEvent = func(s string) error {
		stages = append(stages, s)
		return nil
	}
	from, before := e.log.Tail(), e.log.BytesAppended()
	if err := New(e.tree, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, e, sparsePresent(keep), total)

	// The stages a move unit gained when it took over the compaction
	// unit's body; every stage it fired before still fires, in order.
	added := map[string]bool{"move.moved": true, "move.modified": true}
	for _, tc := range []struct {
		kind  string
		units int
		first string // stages of the first unit of this kind
	}{
		{"compact", 23, "compact.begin compact.moved compact.moved compact.moved compact.modified compact.end"},
		{"move", 21, "move.begin move.end"},
		{"swap", 2, "swap.begin swap.logged swap.moved swap.end"},
	} {
		var first []string
		units := 0
		for _, s := range stages {
			if !strings.HasPrefix(s, tc.kind+".") || added[s] {
				continue
			}
			if units == 0 {
				first = append(first, s)
			}
			if s == tc.kind+".end" {
				units++
			}
		}
		if got := strings.Join(first, " "); got != tc.first || units != tc.units {
			t.Errorf("%s: %d units, first fired %q; want %d units firing %q",
				tc.kind, units, got, tc.units, tc.first)
		}
	}

	types, content := sha256.New(), sha256.New()
	records := 0
	err := e.log.Iterate(from, func(lsn wal.LSN, rec wal.Record) error {
		records++
		fmt.Fprintf(types, "%T\n", rec)
		fmt.Fprintf(content, "%d %+v\n", lsn, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("records=%d bytes=%d types=%x content=%x", records,
		e.log.BytesAppended()-before, types.Sum(nil)[:8], content.Sum(nil)[:8])
	// Log format 3 changed only the spelling of the records: bytes shrank
	// and the LSNs inside content moved; records and types are unchanged.
	// Format 4 moved content again and nothing else: the load before the
	// run logs no begin records, so every LSN — in content, in the
	// records' LSN fields and in the swap images' page LSNs — is 30 500
	// lower, and a system update now prints its Committed:false. Format 5
	// (splits log no cells) shrank only the load: the run logs no split,
	// and with every LSN 24 304 lower its records are byte for byte the
	// same but for their PrevLSNs and the swap images' page LSNs.
	const want = "records=535 bytes=14378 types=c186d387b99a1e56 content=5266b11fa0e7556d"
	if got != want {
		t.Errorf("log of the seeded run:\n got %s\nwant %s", got, want)
	}
}
