package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stripeIndex is the stripe res hashes to.
func stripeIndex(res Resource) int { return int(resHash(res) >> (64 - stripeBits)) }

// stripeRes returns n distinct page resources that hash to stripe idx,
// skipping the first skip of them.
func stripeRes(idx, skip, n int) []Resource {
	var out []Resource
	for id := uint64(1); len(out) < n; id++ {
		if r := PageRes(id); stripeIndex(r) == idx {
			if skip > 0 {
				skip--
				continue
			}
			out = append(out, r)
		}
	}
	return out
}

// waitQueued waits until owner has a request queued in some stripe.
func waitQueued(t *testing.T, m *Manager, owner uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.lockAll()
		queued := false
		for i := range m.stripes {
			if m.stripes[i].waiting[owner] != nil {
				queued = true
			}
		}
		m.unlockAll()
		if queued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("owner %d never queued", owner)
}

// checkIdle fails unless every stripe's table and waiter map is empty.
func checkIdle(t *testing.T, m *Manager) {
	t.Helper()
	m.lockAll()
	defer m.unlockAll()
	for i := range m.stripes {
		st := &m.stripes[i]
		if st.table.n != 0 || len(st.waiting) != 0 {
			t.Errorf("stripe %d: %d heads and %d waiters left", i, st.table.n, len(st.waiting))
		}
	}
}

// TestCrossStripeDeadlockReorgVictim closes 2- and 3-owner deadlock
// cycles whose resources lie in different stripes. The reorganizer
// blocks first and a user closes the cycle, so the detection that finds
// it runs on the user's request; the reorganizer must still be the
// victim, and once it gives up its locks every user finishes.
func TestCrossStripeDeadlockReorgVictim(t *testing.T) {
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("owners=%d", k), func(t *testing.T) {
			m := NewManager()
			const reorg = 100
			m.SetReorg(reorg, true)
			owners := []uint64{reorg, 1, 2}[:k]
			res := make([]Resource, k)
			for i := range res {
				res[i] = stripeRes(i*5%nStripes, 0, 1)[0]
				if err := m.Lock(owners[i], res[i], X); err != nil {
					t.Fatal(err)
				}
			}
			errs := make([]chan error, k)
			for i, o := range owners {
				errs[i] = make(chan error, 1)
				go func(o uint64, want Resource, done chan<- error) {
					err := m.Lock(o, want, X)
					m.ReleaseAll(o)
					done <- err
				}(o, res[(i+1)%k], errs[i])
				if i < k-1 {
					waitQueued(t, m, o)
				}
			}
			for i, o := range owners {
				err := <-errs[i]
				if o == reorg && !errors.Is(err, ErrDeadlock) {
					t.Errorf("reorganizer: err %v, want ErrDeadlock", err)
				}
				if o != reorg && err != nil {
					t.Errorf("owner %d: err %v, want a grant", o, err)
				}
			}
			if n := m.Stats().Deadlocks.Load(); n != 1 {
				t.Errorf("%d deadlock victims, want 1", n)
			}
			checkIdle(t, m)
		})
	}
}

// TestCrossStripeUpgradeCycleInOneStripe: two owners share S on two
// resources of one stripe and each upgrades one of them to X. Each
// upgrade waits for the other's S, so the younger owner is the victim
// and the elder's upgrade is granted once it gives up.
func TestCrossStripeUpgradeCycleInOneStripe(t *testing.T) {
	m := NewManager()
	rs := stripeRes(3, 0, 2)
	a, b := rs[0], rs[1]
	for _, o := range []uint64{1, 2} {
		for _, r := range rs {
			if err := m.Lock(o, r, S); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(1, a, X) }()
	waitQueued(t, m, 1)
	if err := m.Lock(2, b, X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("owner 2's upgrade: err %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatalf("owner 1's upgrade: %v", err)
	}
	if got := m.HeldResources(1); len(got) != 2 || got[a] != X || got[b] != S {
		t.Fatalf("owner 1 holds %v, want %v:X and %v:S", got, a, b)
	}
	m.ReleaseAll(1)
	checkIdle(t, m)
}

// TestCrossStripeCoupleBlockedHandsBackOnce: a coupling step whose
// child (stripe A) is X-locked by another owner waits holding its
// parent (stripe B). When a release wakes it, the parent is given back
// once, in a second critical section, and the whole step stays one
// trip.
func TestCrossStripeCoupleBlockedHandsBackOnce(t *testing.T) {
	for _, to := range []Mode{None, IS} {
		t.Run(fmt.Sprintf("parentTo=%v", to), func(t *testing.T) {
			m := NewManager()
			child := stripeRes(1, 0, 1)[0]
			parent := stripeRes(2, 0, 1)[0]
			tree := TreeRes(1) // a third lock the step must not disturb
			if err := m.Lock(1, child, X); err != nil {
				t.Fatal(err)
			}
			if err := m.Lock(2, tree, IS); err != nil {
				t.Fatal(err)
			}
			if err := m.Lock(2, parent, S); err != nil {
				t.Fatal(err)
			}
			trips0 := m.Trips()
			done := make(chan error, 1)
			go func() { done <- m.Couple(2, child, S, Opt{}, parent, to) }()
			waitQueued(t, m, 2)
			if got := m.Held(2, parent); got != S {
				t.Fatalf("blocked step holds the parent in %v, want S", got)
			}
			m.Unlock(1, child)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// Held and Unlock above are a trip each.
			if d := m.Trips() - trips0; d != 3 {
				t.Errorf("the blocked step took %d trips, want 1", d-2)
			}
			want := map[Resource]Mode{tree: IS, child: S}
			if to != None {
				want[parent] = to
			}
			got := m.HeldResources(2)
			if len(got) != len(want) {
				t.Fatalf("owner 2 holds %v, want %v", got, want)
			}
			for r, mode := range want {
				if got[r] != mode {
					t.Fatalf("owner 2 holds %v, want %v", got, want)
				}
			}
			if oh := m.heldOf(2); len(oh.res) != len(want) {
				t.Fatalf("owner 2's held list %v has %d entries, want %d", oh.res, len(oh.res), len(want))
			}
			// The parent is free for an exclusive lock exactly when it
			// was released.
			err := m.LockOpts(3, parent, X, Opt{NoWait: true})
			if to == None && err != nil || to != None && !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("X on the parent after the step: err %v", err)
			}
			m.ReleaseAll(2)
			m.ReleaseAll(3)
			checkIdle(t, m)
		})
	}
}

// TestCrossStripeTimeoutRacingGrantKeepsGrant: a waiter's timer fires
// while a release is granting its request under the stripe mutex. The
// waiter must keep the grant, record it in its own held list, and
// ReleaseAll must free it.
func TestCrossStripeTimeoutRacingGrantKeepsGrant(t *testing.T) {
	m := NewManager()
	m.Timeout = 20 * time.Millisecond
	res := stripeRes(5, 0, 1)[0]
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, res, S) }()
	waitQueued(t, m, 2)

	// Hold the stripe past the timeout, so the waiter's timeout path
	// waits for the mutex, then grant under it.
	st := m.stripeOf(res)
	st.mu.Lock()
	time.Sleep(5 * m.Timeout)
	released := st.unlockLocked(1, res)
	st.mu.Unlock()
	if !released {
		t.Fatal("owner 1 did not hold the resource")
	}
	m.removeHeld(1, res)

	if err := <-done; err != nil {
		t.Fatalf("waiter lost the grant: %v", err)
	}
	if got := m.HeldResources(2); len(got) != 1 || got[res] != S {
		t.Fatalf("owner 2 holds %v, want %v:S", got, res)
	}
	m.ReleaseAll(2)
	if got := m.Held(2, res); got != None {
		t.Fatalf("ReleaseAll left %v", got)
	}
	checkIdle(t, m)
}

// TestHeldIndexMatchesModelConcurrent is the concurrent form of
// TestHeldIndexMatchesModel: several goroutines, one owner each, run a
// seeded random mix of blocking and NoWait locks, coupling steps,
// downgrades, early releases, instant requests and ReleaseAlls on a
// small shared set of resources spread over the stripes. Three of the
// four owners share an owner slot, so their lists spill. Each owner
// keeps a model of what it holds and checks it against HeldResources as
// it goes. A deadlock victim gives up everything, as a transaction
// would. The run ends with a phase of NoWait requests only, so that at
// quiescence owners still hold locks: then every HeldResources must
// match its model, ReleaseAll must leave no head in any stripe, and the
// grants counted must equal the requests that were granted.
func TestHeldIndexMatchesModelConcurrent(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	owners := []uint64{1, 1 + ownerSlots, 1 + 2*ownerSlots, 2}
	var resources []Resource
	for i := 0; i < 6; i++ {
		resources = append(resources, PageRes(uint64(i+1)), RecordRes(uint64(i+1)))
	}
	m := NewManager()
	models := make([]map[Resource]Mode, len(owners))
	grants := make([]int64, len(owners))

	run := func(g int, rng *rand.Rand, steps int, noWait bool) {
		owner, model := owners[g], models[g]
		modes := []Mode{IS, IS, IX, S, S, X, R, RX}
		pick := func() Resource { return resources[rng.Intn(len(resources))] }
		fail := func(format string, args ...any) {
			t.Errorf("owner %d: "+format, append([]any{owner}, args...)...)
		}
		// grant applies a granted request for mode on r to the model.
		grant := func(r Resource, mode Mode) {
			if cur := model[r]; cur == None || !Covers(cur, mode) {
				model[r] = combine(cur, mode)
				grants[g]++
			}
		}
		// outcome handles a refused request: a deadlock victim gives up
		// everything it holds.
		outcome := func(what string, err error) {
			switch {
			case errors.Is(err, ErrDeadlock):
				m.ReleaseAll(owner)
				clear(model)
			case !errors.Is(err, ErrWouldBlock):
				fail("%s: %v", what, err)
			}
		}
		for step := 0; step < steps; step++ {
			opt := Opt{NoWait: noWait || rng.Intn(2) == 0}
			switch op := rng.Intn(100); {
			case op < 35:
				r, mode := pick(), modes[rng.Intn(len(modes))]
				if err := m.LockOpts(owner, r, mode, opt); err == nil {
					grant(r, mode)
				} else {
					outcome("Lock", err)
				}
			case op < 55:
				parent, child := pick(), pick()
				if parent == child {
					continue
				}
				mode := modes[rng.Intn(len(modes))]
				to := None
				if rng.Intn(2) == 0 && Covers(model[parent], IS) && model[parent] != IS {
					to = IS
				}
				if err := m.Couple(owner, child, mode, opt, parent, to); err == nil {
					grant(child, mode)
					if model[parent] != None {
						if to == None {
							delete(model, parent)
						} else {
							model[parent] = to
						}
					}
				} else {
					outcome("Couple", err)
				}
			case op < 67:
				r, off := pick(), rng.Intn(4)
				cur := model[r]
				for k := 0; k < 4; k++ {
					to := []Mode{IS, IX, S, R}[(off+k)%4]
					if cur != None && to != cur && Covers(cur, to) {
						m.Downgrade(owner, r, to)
						model[r] = to
						break
					}
				}
			case op < 80:
				r := pick()
				m.Unlock(owner, r)
				delete(model, r)
			case op < 92:
				opt.Instant = true
				if err := m.LockOpts(owner, pick(), []Mode{S, X, RS}[rng.Intn(3)], opt); err == nil {
					grants[g]++
				} else {
					outcome("LockInstant", err)
				}
			default:
				m.ReleaseAll(owner)
				clear(model)
			}
			if step%16 == 0 {
				checkHeld(t, m, owner, model)
			}
		}
		if !noWait {
			m.ReleaseAll(owner)
			clear(model)
		}
	}

	var wg sync.WaitGroup
	phase := func(steps int, noWait bool, seed int64) {
		for g := range owners {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				run(g, rand.New(rand.NewSource(seed+int64(g))), steps, noWait)
			}(g)
		}
		wg.Wait()
	}
	for g := range owners {
		models[g] = map[Resource]Mode{}
	}
	// Blocking phase: each owner gives everything up at its end, so the
	// others' waits on it end too.
	phase(steps, false, 41)
	phase(steps/4, true, 4100)
	if t.Failed() {
		return
	}

	held := 0
	for g, o := range owners {
		checkHeld(t, m, o, models[g])
		held += len(models[g])
	}
	if held == 0 {
		t.Fatal("no owner held a lock at quiescence: the check saw nothing")
	}
	var want int64
	for g, o := range owners {
		m.ReleaseAll(o)
		want += grants[g]
	}
	checkIdle(t, m)
	if got := m.Stats().Grants.Load(); got != want {
		t.Errorf("the manager counted %d grants, the owners %d", got, want)
	}
}

// checkHeld fails unless owner's HeldResources is exactly model.
func checkHeld(t *testing.T, m *Manager, owner uint64, model map[Resource]Mode) {
	t.Helper()
	got := m.HeldResources(owner)
	ok := len(got) == len(model)
	for r, mode := range model {
		ok = ok && got[r] == mode
	}
	if !ok {
		t.Errorf("owner %d holds %v, model %v", owner, got, model)
	}
}
