package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestHeldIndexMatchesModel drives three owners through a seeded random
// sequence of grants, upgrades, downgrades, early releases, coupling
// steps, instant requests and ReleaseAlls over up to 5 000 resources,
// and after every step compares HeldResources and Held with a map
// model. Requests use NoWait, so a conflict is a refusal the model must
// predict rather than a wait. Owners come to hold hundreds of locks at
// a time, so a held index that loses or duplicates an entry when it is
// long shows here.
func TestHeldIndexMatchesModel(t *testing.T) {
	const (
		owners    = 3
		resources = 5000
	)
	steps := 10000
	if testing.Short() {
		steps = 2000
	}
	rng := rand.New(rand.NewSource(39))
	m := NewManager()
	model := make([]map[Resource]Mode, owners+1) // owners are 1..3
	for o := 1; o <= owners; o++ {
		model[o] = map[Resource]Mode{}
	}
	// Mostly the modes that share, so owners build long lists.
	grantModes := []Mode{IS, IS, IX, IX, S, S, X, R, RX}
	randRes := func() Resource {
		id := uint64(rng.Intn(resources/2) + 1)
		if rng.Intn(2) == 0 {
			return PageRes(id)
		}
		return RecordRes(id)
	}
	// heldRes picks one of o's locks (in a fixed order, so the seed
	// replays the sequence), or a fresh resource one time in len+1.
	heldRes := func(o int) Resource {
		n := rng.Intn(len(model[o]) + 1)
		if n == len(model[o]) {
			return randRes()
		}
		keys := make([]Resource, 0, len(model[o]))
		for r := range model[o] {
			keys = append(keys, r)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].Space < keys[j].Space || keys[i].Space == keys[j].Space && keys[i].ID < keys[j].ID
		})
		return keys[n]
	}
	// grantable is the manager's rule for a request with no queue: the
	// mode must be compatible with every other owner's.
	grantable := func(o int, r Resource, mode Mode) bool {
		for p := 1; p <= owners; p++ {
			if p != o && !Compatible(model[p][r], mode) {
				return false
			}
		}
		return true
	}
	// request predicts a NoWait lock of mode on r for o, applies it to
	// the model, and returns whether it succeeds.
	request := func(o int, r Resource, mode Mode) bool {
		cur := model[o][r]
		if cur != None && Covers(cur, mode) {
			return true
		}
		eff := combine(cur, mode)
		if !grantable(o, r, eff) {
			return false
		}
		model[o][r] = eff
		return true
	}
	checkErr := func(step int, what string, err error, want bool) {
		t.Helper()
		if want && err != nil || !want && !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("step %d: %s: err %v, model says granted=%v", step, what, err, want)
		}
	}

	maxHeld := 0
	for step := 0; step < steps; step++ {
		o := rng.Intn(owners) + 1
		var r Resource
		var what string
		switch op := rng.Intn(2000); {
		case op < 1100: // lock a resource, often a fresh one
			r, mode := randRes(), grantModes[rng.Intn(len(grantModes))]
			what = fmt.Sprintf("owner %d Lock %v %v", o, r, mode)
			checkErr(step, what, m.LockOpts(uint64(o), r, mode, Opt{NoWait: true}), request(o, r, mode))
		case op < 1260: // upgrade or re-request one o holds
			r, mode := heldRes(o), grantModes[rng.Intn(len(grantModes))]
			what = fmt.Sprintf("owner %d upgrade %v to %v", o, r, mode)
			checkErr(step, what, m.LockOpts(uint64(o), r, mode, Opt{NoWait: true}), request(o, r, mode))
		case op < 1420:
			r = heldRes(o)
			to := []Mode{IS, IX, S, R}[rng.Intn(4)]
			what = fmt.Sprintf("owner %d Downgrade %v to %v", o, r, to)
			m.Downgrade(uint64(o), r, to)
			if model[o][r] != None {
				model[o][r] = to
			}
		case op < 1660:
			r = heldRes(o)
			what = fmt.Sprintf("owner %d Unlock %v", o, r)
			m.Unlock(uint64(o), r)
			delete(model[o], r)
		case op < 1860: // a coupling step from one of o's locks
			parent := heldRes(o)
			r = randRes()
			mode := grantModes[rng.Intn(len(grantModes))]
			to := []Mode{None, IS}[rng.Intn(2)]
			what = fmt.Sprintf("owner %d Couple %v %v from %v to %v", o, r, mode, parent, to)
			ok := request(o, r, mode)
			if ok && model[o][parent] != None {
				if to == None {
					delete(model[o], parent)
				} else {
					model[o][parent] = to
				}
			}
			checkErr(step, what, m.Couple(uint64(o), r, mode, Opt{NoWait: true}, parent, to), ok)
		case op < 1999:
			r = randRes()
			mode := []Mode{S, X, RS}[rng.Intn(3)]
			what = fmt.Sprintf("owner %d LockInstant %v %v", o, r, mode)
			err := m.LockOpts(uint64(o), r, mode, Opt{Instant: true, NoWait: true})
			checkErr(step, what, err, grantable(o, r, mode))
		default:
			what = fmt.Sprintf("owner %d ReleaseAll", o)
			m.ReleaseAll(uint64(o))
			model[o] = map[Resource]Mode{}
		}

		for p := 1; p <= owners; p++ {
			got := m.HeldResources(uint64(p))
			if len(got) > maxHeld {
				maxHeld = len(got)
			}
			if len(got) != len(model[p]) {
				t.Fatalf("step %d (%s): owner %d holds %d locks, model %d", step, what, p, len(got), len(model[p]))
			}
			for res, mode := range model[p] {
				if got[res] != mode {
					t.Fatalf("step %d (%s): owner %d holds %v in %v, model %v", step, what, p, res, got[res], mode)
				}
			}
			if got := m.Held(uint64(p), r); got != model[p][r] {
				t.Fatalf("step %d (%s): Held(%d, %v) = %v, model %v", step, what, p, r, got, model[p][r])
			}
		}
	}
	if maxHeld < steps/20 {
		t.Fatalf("no owner held more than %d locks: the sequence no longer builds long held lists", maxHeld)
	}
}

// BenchmarkLockManyHeld measures one grant and one early release of a
// fresh resource by an owner that already holds `held` locks: the
// bookkeeping of a lock coupling step deep into a large transaction.
// With a held index searched from the front, ns/op grows with held.
func BenchmarkLockManyHeld(b *testing.B) {
	for _, held := range []int{16, 4096} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			m := NewManager()
			const owner = 1
			for i := 0; i < held; i++ {
				if err := m.Lock(owner, RecordRes(uint64(i)), X); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := PageRes(uint64(i))
				if err := m.Lock(owner, res, S); err != nil {
					b.Fatal(err)
				}
				m.Unlock(owner, res)
			}
		})
	}
}
