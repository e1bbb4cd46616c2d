package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestCheckpointBesideCommitters runs Checkpoint in a loop beside two
// committing clients, then crashes and restarts: every acknowledged
// write must be there with its last acknowledged value. A checkpoint
// whose transaction table or redo point is not consistent with the
// position of its record in the log loses one — the restart takes a
// committed transaction for a loser, skips an update that was logged
// while the pages were being flushed, or finds an undo chain cut off by
// the checkpoint's own log truncation.
func TestCheckpointBesideCommitters(t *testing.T) {
	backends := map[string]func(t *testing.T) *DB{
		"mem": func(t *testing.T) *DB {
			db, err := Open(Options{PageSize: 1024, BufferPoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		"file": func(t *testing.T) *DB {
			return openFileDB(t, t.TempDir(), Options{BufferPoolPages: 64, WALSegmentBytes: 16 << 10})
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			db := open(t)
			defer db.Close()
			const clients, keysPer = 2, 200
			acked := make([]map[int]int, clients) // key -> last acknowledged version
			for c := range acked {
				acked[c] = map[int]int{}
			}
			val := func(key, version int) []byte {
				return []byte(fmt.Sprintf("k%06d-v%06d-%s", key, version, workload.Value(key, 24)))
			}
			for round := 0; round < 3; round++ {
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							key := c + clients*(i%keysPer)
							version, exists := acked[c][key]
							var err error
							if exists {
								err = db.Update(workload.Key(key), val(key, version+1))
							} else {
								err = db.Insert(workload.Key(key), val(key, version+1))
							}
							if err != nil {
								t.Errorf("client %d key %d: %v", c, key, err)
								return
							}
							acked[c][key] = version + 1
						}
					}(c)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := db.Checkpoint(); err != nil {
							t.Errorf("Checkpoint: %v", err)
							return
						}
					}
				}()
				time.Sleep(150 * time.Millisecond)
				close(stop)
				wg.Wait()
				if t.Failed() {
					return
				}

				db.Crash()
				if _, err := db.Restart(); err != nil {
					t.Fatalf("round %d: Restart: %v", round, err)
				}
				if err := db.Check(); err != nil {
					t.Fatalf("round %d: Check after restart: %v", round, err)
				}
				for c := range acked {
					for key, version := range acked[c] {
						got, err := db.Get(workload.Key(key))
						if err != nil {
							t.Fatalf("round %d: acknowledged key %d: %v", round, key, err)
						}
						if want := val(key, version); string(got) != string(want) {
							t.Fatalf("round %d: key %d = %.18s, last acknowledged %.18s", round, key, got, want)
						}
					}
				}
			}
		})
	}
}
