package model

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
)

// NullID is the reserved dictionary ID of the null value. Every Dict is
// born with null interned at ID 0, so "id == NullID" is the ID-level
// null test and a zeroed ID buffer reads as an all-null row.
const NullID uint32 = 0

// NoID is the sentinel marking an absent cached ID (see Tuple). It is
// never a valid dictionary ID: a Dict refuses to grow that far.
const NoID = ^uint32(0)

// Dict is an append-only dictionary interning attribute values as dense
// uint32 IDs. Two values receive the same ID exactly when their
// canonical forms (Value.Norm) coincide — the same equivalence Key and
// the chase's value grouping already use — so ID equality substitutes
// for Value.Equal everywhere the chase compares values. The deliberate
// divergences from Equal are those of Norm/Key themselves: NaN folds
// into a single class (Equal follows IEEE and rejects it), and int64
// magnitudes beyond float64 precision collide with their float
// neighbours, exactly as their Key strings always have (see Norm and
// Key). The chase previously mixed Key-based grouping with Equal-based
// target comparison, so those corners were path-dependent; IDs make
// them uniformly canonical.
//
// The values live once, in the ID → value slice. Finding a value's ID
// goes through ID tables over that slice: open-addressing arrays of
// uint32 IDs, placed by a seeded hash of the Norm value and confirmed
// by comparing against the stored value's Norm. The hash only places
// an ID; it never chooses one — IDs are handed out in first-intern
// order. Null is ID 0 and never enters a table, so 0 marks a free slot.
//
// A Dict is safe for concurrent use and its reads never block: lookups
// probe an immutable snapshot table through an atomic pointer, so any
// number of goroutines may resolve IDs while others intern new values.
// Interning serialises writers on an internal mutex but never touches
// the snapshot readers see; newly interned IDs go into a small overlay
// table that is folded into a fresh snapshot once it holds as many IDs
// as the snapshot covers (the sync.Map promotion scheme). A promotion
// allocates one 4-byte slot per table entry, at most four per value.
//
// IDs are append-only and version-stable: an ID, once assigned, is
// never reassigned or removed, so IDs cached by one grounding version
// stay valid for every later version of the same schema's groundwork
// (chase.Grounding.Extend relies on this — see DESIGN.md invariants).
type Dict struct {
	seed maphash.Seed
	read atomic.Pointer[idTable] // snapshot; immutable once published
	vals atomic.Pointer[[]Value] // ID → stored value; append-only

	mu    sync.Mutex // guards dirty and all appends
	dirty idTable    // IDs newer than the snapshot
}

// idTable is an open-addressing hash table of dictionary IDs with
// linear probing: a power-of-two slot array, at most half full, where
// 0 (NullID, never stored) marks a free slot.
type idTable struct {
	slots []uint32
	n     int
}

// find returns the ID stored in t whose value has Norm nv; h is nv's
// hash and vals the ID → value slice covering t's IDs.
func (t *idTable) find(vals []Value, h uint64, nv Value) (uint32, bool) {
	if len(t.slots) == 0 {
		return NullID, false
	}
	mask := uint64(len(t.slots) - 1)
	for k := h & mask; ; k = (k + 1) & mask {
		id := t.slots[k]
		if id == NullID {
			return NullID, false
		}
		if vals[id].Norm() == nv {
			return id, true
		}
	}
}

// insert stores id, whose value hashes to h, in a free slot. The
// caller keeps the table at most half full.
func (t *idTable) insert(h uint64, id uint32) {
	mask := uint64(len(t.slots) - 1)
	k := h & mask
	for t.slots[k] != NullID {
		k = (k + 1) & mask
	}
	t.slots[k] = id
	t.n++
}

// tableSlots is the slot count for a table of n IDs: the smallest power
// of two at least 2n, and at least 8.
func tableSlots(n int) int {
	s := 8
	for s < 2*n {
		s <<= 1
	}
	return s
}

// NewDict creates a dictionary holding only the null value (as NullID).
func NewDict() *Dict {
	d := &Dict{seed: maphash.MakeSeed()}
	vals := []Value{{}}
	d.vals.Store(&vals)
	d.read.Store(&idTable{})
	return d
}

// hash hashes a Norm value for the ID tables. Non-string values hash
// their kind, float bits and bool; the NaN sentinel shares false's
// hash, which costs at most a probe.
func (d *Dict) hash(nv Value) uint64 {
	if nv.kind == String {
		return maphash.String(d.seed, nv.s)
	}
	var b [10]byte
	b[0] = byte(nv.kind)
	binary.LittleEndian.PutUint64(b[1:], math.Float64bits(nv.f))
	if nv.b {
		b[9] = 1
	}
	return maphash.Bytes(d.seed, b[:])
}

// Size returns the number of interned values, including null.
func (d *Dict) Size() int { return len(*d.vals.Load()) }

// Lookup returns the ID of v if some Equal value has been interned
// (null always has). It takes no lock when the value is in the current
// snapshot, and never interns.
func (d *Dict) Lookup(v Value) (uint32, bool) {
	nv := v.Norm()
	if nv.kind == Null {
		return NullID, true
	}
	h := d.hash(nv)
	if id, ok := d.findSnapshot(h, nv); ok {
		return id, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.findLocked(h, nv)
}

// Intern returns the ID of v, assigning the next free ID when no Equal
// value has been interned yet. The hot path — a value already in the
// snapshot — is a lock-free probe of the snapshot table.
func (d *Dict) Intern(v Value) uint32 {
	nv := v.Norm()
	if nv.kind == Null {
		return NullID
	}
	h := d.hash(nv)
	if id, ok := d.findSnapshot(h, nv); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.findLocked(h, nv); ok {
		return id
	}
	vals := *d.vals.Load()
	id := uint32(len(vals))
	if id == NoID {
		panic("model: dictionary overflow (2³²-1 distinct values)")
	}
	// Publish the grown ID→value slice before the ID becomes findable.
	// Readers holding the old header never index the new element;
	// readers loading the new header see it fully written. NaN is kept
	// as a real float so ValueOf renders faithfully (its Norm is an
	// opaque sentinel, which find compares against).
	stored := nv
	if v.Kind() == Float && math.IsNaN(v.Float()) {
		stored = v
	}
	vals = append(vals, stored)
	d.vals.Store(&vals)
	if 2*(d.dirty.n+1) > len(d.dirty.slots) {
		d.dirty = d.rebuild(vals, d.dirty.n+1, d.dirty.slots)
	}
	d.dirty.insert(h, id)
	if d.dirty.n >= d.read.Load().n {
		d.promote(vals)
	}
	return id
}

// findSnapshot looks nv (hash h) up in the snapshot, without a lock.
// The snapshot is loaded before the ID → value slice: an ID is appended
// to the slice before any table holds it, so the slice covers every ID
// of the snapshot.
func (d *Dict) findSnapshot(h uint64, nv Value) (uint32, bool) {
	t := d.read.Load()
	return t.find(*d.vals.Load(), h, nv)
}

// findLocked looks nv (hash h) up in the snapshot and then in the
// overlay. Called with mu held: the snapshot is re-read because a
// concurrent promote may have moved nv there since an unlocked probe.
func (d *Dict) findLocked(h uint64, nv Value) (uint32, bool) {
	if id, ok := d.findSnapshot(h, nv); ok {
		return id, true
	}
	return d.dirty.find(*d.vals.Load(), h, nv)
}

// rebuild returns a table sized for n IDs holding the IDs of the
// non-null slots in from, each re-placed by its value's hash.
func (d *Dict) rebuild(vals []Value, n int, from []uint32) idTable {
	t := idTable{slots: make([]uint32, tableSlots(n))}
	for _, id := range from {
		if id != NullID {
			t.insert(d.hash(vals[id].Norm()), id)
		}
	}
	return t
}

// promote publishes a snapshot indexing every ID of vals and empties
// the overlay, keeping its slots for reuse. Called with mu held;
// amortised O(1) per Intern, since the snapshot doubles each time.
func (d *Dict) promote(vals []Value) {
	t := idTable{slots: make([]uint32, tableSlots(len(vals)))}
	for id := 1; id < len(vals); id++ {
		t.insert(d.hash(vals[id].Norm()), uint32(id))
	}
	d.read.Store(&t)
	clear(d.dirty.slots)
	d.dirty.n = 0
}

// ValueOf returns the canonical (Norm) representative interned under
// id. It panics when id was never assigned.
func (d *Dict) ValueOf(id uint32) Value { return (*d.vals.Load())[id] }
