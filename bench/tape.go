package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/workload"
)

// An op tape is the fixed work of one client: a pure function of
// (seed, workload, client, scale), generated during set-up so no
// generation cost sits inside a timed region. Tapes are sized by op
// count, never by duration, so counts repeat from run to run and a
// faster commit does not silently change log length, recovery work or
// tree shape. Every client writes only keys of its own partition
// (key index mod clients), so the logical work and the final database
// are independent of how the clients interleave, and the generator can
// track which of its keys exist: no operation on a tape fails.

type opKind uint8

const (
	opGet opKind = iota
	opUpdate
	opInsert
	opDelete
	opScan       // key indexes tape.scans
	opBatch      // key indexes tape.groups: one InsertBatch transaction
	opDeleteTxn  // key indexes tape.groups: one multi-delete transaction
	opReorganize // full three-pass Reorganize
	opSample     // fill / space sample (DB.Occupancy)
	numOpKinds
)

var opKindNames = [numOpKinds]string{"get", "update", "insert", "delete",
	"scan", "batch", "delete_txn", "reorganize", "sample"}

// op is one tape entry, 8 bytes so a multi-million-op tape stays small
// and pointer-free.
type op struct {
	kind opKind
	val  uint16 // index into env.vals (single-record writes)
	key  uint32 // key index, or index into scans / groups
}

type scanSpec struct {
	lo    uint32 // first key index
	limit uint32 // stop after this many rows (0 = to the end)
	want  uint32 // exact rows expected (0 = only "at least one")
}

type tape struct {
	ops    []op
	scans  []scanSpec
	groups [][]uint32  // key indexes of batch inserts / delete transactions
	marks  []phaseMark // phase changes, ascending by op index
}

// Phases of a workload: the level between workload and op in the span
// tree. The pre-reorganization scans are their own phase so their rows/s
// can be told from the post-reorganization ones.
const (
	phMeasure uint8 = iota
	phSparsify
	phScanPre
	phReorganize
	phScanPost
	phRefill
	phWave
	phRecover
	numPhases
)

var phaseNames = [numPhases]string{"measure", "sparsify", "scan.pre",
	"reorganize", "scan.post", "refill", "wave", "recover"}

type phaseMark struct {
	at    int
	phase uint8
}

func (t *tape) mark(phase uint8) { t.marks = append(t.marks, phaseMark{len(t.ops), phase}) }

const (
	valueSize = 48
	valuePool = 4096 // distinct pre-materialised values
	keyWidth  = 12   // len(workload.Key(i)) for i < 1e8
)

// valFor picks the value a write stores: it changes with every write to
// a key, so a lost update is visible to the verifier.
func valFor(key uint32, seq int) uint16 {
	return uint16((uint32(seq)*2654435761 ^ key*40503) >> 7 & (valuePool - 1))
}

// tapeRNG derives the generator for one (seed, workload, client, stream).
func tapeRNG(seed int64, workloadName string, client int, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workloadName))
	h.Write([]byte{0, byte(client), 0})
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed*1000003 + int64(h.Sum64()>>1)))
}

// materialiseKeys lays workload.Key(0..n) out in one flat buffer: key i
// is flat[i*keyWidth:(i+1)*keyWidth], sliced without allocating.
func materialiseKeys(n int) []byte {
	flat := make([]byte, 0, n*keyWidth)
	for i := 0; i < n; i++ {
		flat = append(flat, workload.Key(i)...)
	}
	return flat
}

func materialiseValues() [][]byte {
	vals := make([][]byte, valuePool)
	for i := range vals {
		vals[i] = workload.Value(i*7919+13, valueSize)
	}
	return vals
}

// scatter maps Zipfian rank r to a slot in [0, n) by a fixed bijection,
// so the hot keys are scattered over the leaves and not packed into the
// leftmost one. Each client gets its own offset: with one shared mapping
// the clients' hottest keys would be neighbours on the same leaves, and
// the workload would measure latch contention between two goroutines.
type scatter struct{ n, mul, off uint64 }

func newScatter(n, client int) scatter {
	mul := uint64(float64(n)*0.6180339887) | 1
	for gcd(mul, uint64(n)) != 1 {
		mul += 2
	}
	return scatter{uint64(n), mul, uint64(client) * uint64(n/3+7)}
}

func (s scatter) at(rank uint64) uint32 { return uint32((rank*s.mul + s.off) % s.n) }

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// deck deals op kinds in exact proportions: every hundred draws hold
// each kind exactly as often as its percentage says, in a shuffled
// order. The op counts of a tape, and with them WAL bytes per op, then
// do not vary with the seed the way sampled percentages would.
type deck struct {
	r     *rand.Rand
	cards [100]opKind
	next  int
}

type share struct {
	kind opKind
	pct  int
}

func newDeck(r *rand.Rand, mix ...share) *deck {
	d := &deck{r: r, next: 100}
	n := 0
	for _, m := range mix {
		for i := 0; i < m.pct; i++ {
			d.cards[n] = m.kind
			n++
		}
	}
	if n != 100 {
		panic("bench: op mix does not add up to 100 %")
	}
	return d
}

func (d *deck) draw() opKind {
	if d.next == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// keySet tracks which slots of one client's partition exist, with O(1)
// uniform sampling of a present slot.
type keySet struct {
	pos     []int32 // slot -> index in present, -1 when absent
	present []uint32
}

func newKeySet(slots int) *keySet {
	ks := &keySet{pos: make([]int32, slots)}
	for i := range ks.pos {
		ks.pos[i] = -1
	}
	return ks
}

func (ks *keySet) add(slot uint32) {
	ks.pos[slot] = int32(len(ks.present))
	ks.present = append(ks.present, slot)
}

func (ks *keySet) remove(slot uint32) {
	i := ks.pos[slot]
	last := ks.present[len(ks.present)-1]
	ks.present[i] = last
	ks.pos[last] = i
	ks.present = ks.present[:len(ks.present)-1]
	ks.pos[slot] = -1
}

func (ks *keySet) pick(r *rand.Rand) uint32 { return ks.present[r.Intn(len(ks.present))] }

func (ks *keySet) pickAbsent(r *rand.Rand) uint32 {
	for {
		s := uint32(r.Intn(len(ks.pos)))
		if ks.pos[s] < 0 {
			return s
		}
	}
}

// --- mem-hot ---

const memHotScanRows = 100

// memHotTape: Zipfian(1.1) over the client's half of a static key set,
// 80 % get / 10 % update / 10 % 100-row scan.
func memHotTape(seed int64, client, clients, records, nOps int) *tape {
	r := tapeRNG(seed, wlMemHot, client, "ops")
	part := records / clients
	z := rand.NewZipf(r, 1.1, 1, uint64(part-1))
	sp := newScatter(part, client)
	mix := newDeck(r, share{opGet, 80}, share{opUpdate, 10}, share{opScan, 10})
	t := &tape{ops: make([]op, nOps), marks: []phaseMark{{0, phMeasure}}}
	for i := range t.ops {
		key := sp.at(z.Uint64())*uint32(clients) + uint32(client)
		switch mix.draw() {
		case opGet:
			t.ops[i] = op{kind: opGet, key: key}
		case opUpdate:
			t.ops[i] = op{kind: opUpdate, key: key, val: valFor(key, i)}
		default:
			want := uint32(records) - key
			if want > memHotScanRows {
				want = memHotScanRows
			}
			t.ops[i] = op{kind: opScan, key: uint32(len(t.scans))}
			t.scans = append(t.scans, scanSpec{lo: key, limit: memHotScanRows, want: want})
		}
	}
	return t
}

// --- file-commit ---

const (
	fileCommitBatch    = 64
	fileCommitScanRows = 100
	// fileCommitStride spaces the loaded keys so inserts land between
	// them, all over the tree.
	fileCommitStride = 4
)

// fileCommitKeySpace sizes the key space so the client partitions stay
// under half full after every insert on the tapes.
func fileCommitKeySpace(records, clients, opsPerClient int) int {
	perClient := records/clients + opsPerClient*(10+5*fileCommitBatch)/100
	ks := 2 * perClient * clients
	if min := records * fileCommitStride; ks < min {
		ks = min
	}
	return ks
}

// fileCommitLoaded reports whether key index i is in the initial load:
// every fileCommitStride-th slot of each client's partition.
func fileCommitLoaded(i, records, clients int) bool {
	slot := i / clients
	return slot%fileCommitStride == 0 && slot/fileCommitStride < records/clients
}

// fileCommitTape: uniform 48 % get / 2 % 100-row scan / 30 % update /
// 10 % insert / 5 % delete / 5 % InsertBatch(64) over the client's
// partition of a sparse key space.
func fileCommitTape(seed int64, client, clients, records, keySpace, nOps int) *tape {
	r := tapeRNG(seed, wlFileCommit, client, "ops")
	slots := keySpace / clients
	ks := newKeySet(slots)
	keyOf := func(slot uint32) uint32 { return slot*uint32(clients) + uint32(client) }
	for s := 0; s < slots; s++ {
		if fileCommitLoaded(int(keyOf(uint32(s))), records, clients) {
			ks.add(uint32(s))
		}
	}
	mix := newDeck(r, share{opGet, 48}, share{opScan, 2}, share{opUpdate, 30},
		share{opInsert, 10}, share{opDelete, 5}, share{opBatch, 5})
	t := &tape{ops: make([]op, nOps), marks: []phaseMark{{0, phMeasure}}}
	for i := range t.ops {
		switch mix.draw() {
		case opGet:
			t.ops[i] = op{kind: opGet, key: keyOf(ks.pick(r))}
		case opScan:
			t.ops[i] = op{kind: opScan, key: uint32(len(t.scans))}
			t.scans = append(t.scans, scanSpec{lo: keyOf(ks.pick(r)), limit: fileCommitScanRows})
		case opUpdate:
			key := keyOf(ks.pick(r))
			t.ops[i] = op{kind: opUpdate, key: key, val: valFor(key, i)}
		case opInsert:
			s := ks.pickAbsent(r)
			ks.add(s)
			t.ops[i] = op{kind: opInsert, key: keyOf(s), val: valFor(keyOf(s), i)}
		case opDelete:
			s := ks.pick(r)
			ks.remove(s)
			t.ops[i] = op{kind: opDelete, key: keyOf(s)}
		default:
			g := make([]uint32, fileCommitBatch)
			for j := range g {
				s := ks.pickAbsent(r)
				ks.add(s)
				g[j] = keyOf(s)
			}
			t.ops[i] = op{kind: opBatch, key: uint32(len(t.groups)), val: uint16(i)}
			t.groups = append(t.groups, g)
		}
	}
	return t
}

// --- file-reorg ---

const (
	reorgDeleteTxn   = 500
	reorgRefillBatch = 256
	reorgScans       = 10
	// reorgKeep: every reorgKeep-th key survives a sparsify; those keys
	// are the concurrent client's partition, the rest the cycle driver's.
	reorgKeep = 4
)

// reorgCycleTape is the cycle driver's work for one cycle: sparsify ->
// sample -> 10 full scans -> Reorganize -> sample -> 10 full scans ->
// refill in seeded random order -> sample. The cycle's Checkpoint follows
// once both clients have finished their tapes (runSegment).
func reorgCycleTape(seed int64, cycle, records int) *tape {
	r := tapeRNG(seed, wlFileReorg, 0, fmt.Sprintf("cycle %d", cycle))
	t := &tape{}
	victims := t.sparsify(records)
	survivors := uint32(records - len(victims))
	fullScans := func(want uint32) {
		for i := 0; i < reorgScans; i++ {
			t.ops = append(t.ops, op{kind: opScan, key: uint32(len(t.scans))})
			t.scans = append(t.scans, scanSpec{want: want})
		}
	}
	t.mark(phScanPre)
	t.ops = append(t.ops, op{kind: opSample, key: sampleBefore})
	fullScans(survivors)
	t.mark(phReorganize)
	t.ops = append(t.ops, op{kind: opReorganize})
	t.mark(phScanPost)
	t.ops = append(t.ops, op{kind: opSample, key: sampleAfter})
	fullScans(survivors)
	t.mark(phRefill)
	shuffled := append([]uint32(nil), victims...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for lo := 0; lo < len(shuffled); lo += reorgRefillBatch {
		hi := lo + reorgRefillBatch
		if hi > len(shuffled) {
			hi = len(shuffled)
		}
		t.ops = append(t.ops, op{kind: opBatch, key: uint32(len(t.groups)), val: uint16(cycle*977 + lo)})
		t.groups = append(t.groups, shuffled[lo:hi])
	}
	t.ops = append(t.ops, op{kind: opSample, key: sampleCycle})
	return t
}

// sparsify appends the sparsify phase, 500-delete transactions over 3 of
// every 4 keys, and returns the deleted keys.
func (t *tape) sparsify(records int) (victims []uint32) {
	for i := 0; i < records; i++ {
		if i%reorgKeep != 0 {
			victims = append(victims, uint32(i))
		}
	}
	t.mark(phSparsify)
	for lo := 0; lo < len(victims); lo += reorgDeleteTxn {
		hi := lo + reorgDeleteTxn
		if hi > len(victims) {
			hi = len(victims)
		}
		t.ops = append(t.ops, op{kind: opDeleteTxn, key: uint32(len(t.groups))})
		t.groups = append(t.groups, victims[lo:hi])
	}
	return victims
}

// reorgSparsifyTape is the sparsify step alone (before the aborted
// reorganization of the epilogue).
func reorgSparsifyTape(records int) *tape {
	t := &tape{}
	t.sparsify(records)
	return t
}

// reorgReaderTape is the concurrent client's fixed work for one cycle:
// Zipfian(1.2) 95 % get / 5 % update over the keys that survive
// sparsification.
func reorgReaderTape(seed int64, cycle, records, nOps int) *tape {
	r := tapeRNG(seed, wlFileReorg, 1, fmt.Sprintf("reader %d", cycle))
	part := records / reorgKeep
	z := rand.NewZipf(r, 1.2, 1, uint64(part-1))
	sp := newScatter(part, 0)
	mix := newDeck(r, share{opGet, 95}, share{opUpdate, 5})
	t := &tape{ops: make([]op, nOps), marks: []phaseMark{{0, phMeasure}}}
	for i := range t.ops {
		key := sp.at(z.Uint64()) * reorgKeep
		if mix.draw() == opGet {
			t.ops[i] = op{kind: opGet, key: key}
		} else {
			t.ops[i] = op{kind: opUpdate, key: key, val: valFor(key, cycle*nOps+i)}
		}
	}
	return t
}

// --- mem-churn-daemon ---

const (
	churnQuarters    = 4
	churnDeleteFrac  = 0.8
	churnGetsPerDel  = 5
	churnScans       = 20
	churnScanRows    = 1000
	churnRefillBatch = 256
)

// churnWaveTape is one delete-heavy wave: batch-refill what the
// previous wave deleted, then delete 80 % of the next quarter record at
// a time with five Zipfian gets of existing keys per delete and 20
// scans of 1000 rows spread through the wave. present is the
// generator's model of the tree and is updated in place; deleted
// receives the keys this wave removed.
func churnWaveTape(r *rand.Rand, wave, records int, present []bool, refill []uint32) (t *tape, deleted []uint32) {
	t = &tape{marks: []phaseMark{{0, phWave}}}
	for lo := 0; lo < len(refill); lo += churnRefillBatch {
		hi := lo + churnRefillBatch
		if hi > len(refill) {
			hi = len(refill)
		}
		t.ops = append(t.ops, op{kind: opBatch, key: uint32(len(t.groups)), val: uint16(wave*131 + lo)})
		t.groups = append(t.groups, refill[lo:hi])
		for _, k := range refill[lo:hi] {
			present[k] = true
		}
	}
	quarter := records / churnQuarters
	qlo := (wave % churnQuarters) * quarter
	victims := make([]uint32, 0, quarter)
	for i := qlo; i < qlo+quarter; i++ {
		victims = append(victims, uint32(i))
	}
	r.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	victims = victims[:int(float64(quarter)*churnDeleteFrac)]
	z := rand.NewZipf(r, 1.1, 1, uint64(records-1))
	sp := newScatter(records, 0)
	scanEvery := len(victims)/churnScans + 1
	for i, v := range victims {
		t.ops = append(t.ops, op{kind: opDelete, key: v})
		present[v] = false
		for g := 0; g < churnGetsPerDel; g++ {
			key := sp.at(z.Uint64())
			for !present[key] {
				key = sp.at(z.Uint64())
			}
			t.ops = append(t.ops, op{kind: opGet, key: key})
		}
		if i%scanEvery == scanEvery-1 {
			lo := uint32(r.Intn(records))
			var want uint32
			for k := int(lo); k < records && want < churnScanRows; k++ {
				if present[k] {
					want++
				}
			}
			if want == 0 {
				continue
			}
			t.ops = append(t.ops, op{kind: opScan, key: uint32(len(t.scans))})
			t.scans = append(t.scans, scanSpec{lo: lo, limit: churnScanRows, want: want})
		}
	}
	return t, victims
}
