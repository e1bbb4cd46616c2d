package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestPagerConcurrentFixUnfix drives many goroutines fixing, dirtying
// and flushing a working set larger than the (sharded) pool, so CLOCK
// eviction, the loading protocol and the flush path all interleave.
// The assertions are the race detector plus page self-consistency:
// every page must always carry its own id in the header.
func TestPagerConcurrentFixUnfix(t *testing.T) {
	d := NewDisk(MinPageSize)
	w := &fakeWAL{}
	p := NewPager(d, 16, w)

	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		f, err := p.Allocate(PageLeaf)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		p.Unfix(f)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*31 + 1))
			for i := 0; i < 400; i++ {
				id := ids[rng.Intn(pages)]
				f, err := p.Fix(id)
				if err != nil {
					errc <- err
					return
				}
				switch rng.Intn(4) {
				case 0: // write
					f.Lock()
					if got := f.Data().ID(); got != id {
						f.Unlock()
						p.Unfix(f)
						errc <- fmt.Errorf("frame for page %d carries header id %d", id, got)
						return
					}
					p.MarkDirty(f, uint64(i+1))
					f.Unlock()
				case 1: // flush
					p.Unfix(f)
					if err := p.FlushPage(id); err != nil {
						errc <- err
						return
					}
					continue
				default: // read
					f.RLock()
					got := f.Data().ID()
					f.RUnlock()
					if got != id {
						p.Unfix(f)
						errc <- fmt.Errorf("frame for page %d carries header id %d", id, got)
						return
					}
				}
				p.Unfix(f)
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Every page image on disk must carry its own id.
	buf := make(Page, MinPageSize)
	for _, id := range ids {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf.ID() != id {
			t.Fatalf("disk page %d carries header id %d", id, buf.ID())
		}
	}
}

// TestPagerConcurrentAllocateDeallocate interleaves allocation,
// deallocation and fixes; the free map must never hand the same page
// to two owners and deallocated pages must come back free on disk.
func TestPagerConcurrentAllocateDeallocate(t *testing.T) {
	d := NewDisk(MinPageSize)
	p := NewPager(d, 32, &fakeWAL{})

	var mu sync.Mutex
	owned := make(map[PageID]int)
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []PageID
			for i := 0; i < 200; i++ {
				if len(mine) == 0 || i%3 != 0 {
					f, err := p.Allocate(PageLeaf)
					if err != nil {
						errc <- err
						return
					}
					id := f.ID()
					p.Unfix(f)
					mu.Lock()
					owned[id]++
					if owned[id] > 1 {
						mu.Unlock()
						errc <- fmt.Errorf("page %d allocated to two owners", id)
						return
					}
					mu.Unlock()
					mine = append(mine, id)
				} else {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					// Give the page up in the books first: the moment
					// Deallocate frees it, another goroutine's Allocate may
					// legitimately be handed the same id.
					mu.Lock()
					owned[id]--
					mu.Unlock()
					if err := p.Deallocate(id, 0); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Deallocated pages must be stamped free on disk.
	types := d.ScanTypes()
	mu.Lock()
	defer mu.Unlock()
	for id, n := range owned {
		if n == 0 && int(id) < len(types) && types[id] != PageFree {
			t.Errorf("freed page %d has stable type %v", id, types[id])
		}
	}
}
