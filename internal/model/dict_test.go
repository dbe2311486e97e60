package model

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestDictNullIsZero(t *testing.T) {
	d := NewDict()
	if d.Size() != 1 {
		t.Fatalf("fresh dict holds %d values, want 1 (null)", d.Size())
	}
	if id := d.Intern(NullValue()); id != NullID {
		t.Fatalf("null interned as %d, want %d", id, NullID)
	}
	if id, ok := d.Lookup(NullValue()); !ok || id != NullID {
		t.Fatalf("null lookup = (%d, %v), want (0, true)", id, ok)
	}
}

func TestDictEqualValuesShareID(t *testing.T) {
	d := NewDict()
	negZero := math.Copysign(0, -1)
	cases := [][2]Value{
		{I(3), F(3)},           // numeric cross-kind equality
		{F(0), F(negZero)},     // signed zeros
		{S("x"), S("x")},       // plain strings
		{B(true), B(true)},     // booleans
		{Parse("2.5"), F(2.5)}, // parse agrees with constructor
	}
	for i, c := range cases {
		a, b := d.Intern(c[0]), d.Intern(c[1])
		if a != b {
			t.Fatalf("case %d: %s and %s interned as %d and %d", i, c[0].Quote(), c[1].Quote(), a, b)
		}
	}
}

func TestDictDistinctValuesGetDistinctIDs(t *testing.T) {
	d := NewDict()
	vals := []Value{S("a"), S("b"), I(1), I(2), F(1.5), B(true), B(false), S("1"), S("true")}
	seen := map[uint32]Value{NullID: NullValue()}
	for _, v := range vals {
		id := d.Intern(v)
		if prev, dup := seen[id]; dup {
			t.Fatalf("%s and %s share ID %d", prev.Quote(), v.Quote(), id)
		}
		seen[id] = v
	}
	if d.Size() != len(vals)+1 {
		t.Fatalf("dict holds %d values, want %d", d.Size(), len(vals)+1)
	}
}

func TestDictAppendOnlyAcrossPromotions(t *testing.T) {
	d := NewDict()
	const n = 10_000 // far past several promotions
	ids := make([]uint32, n)
	for i := 0; i < n; i++ {
		ids[i] = d.Intern(S(fmt.Sprintf("v%d", i)))
	}
	// Every earlier ID must survive every later append (the version
	// stability chase.Grounding.Extend depends on).
	for i := 0; i < n; i++ {
		if got := d.Intern(S(fmt.Sprintf("v%d", i))); got != ids[i] {
			t.Fatalf("value %d re-interned as %d, first saw %d", i, got, ids[i])
		}
		if v := d.ValueOf(ids[i]); v.Str() != fmt.Sprintf("v%d", i) {
			t.Fatalf("ValueOf(%d) = %s", ids[i], v.Quote())
		}
	}
}

// TestDictConcurrentIntern exercises the lock-free read / serialised
// append protocol under the race detector: all goroutines must agree on
// every value's ID while interning overlapping and fresh value sets.
func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const workers, per = 8, 500
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, 0, 2*per)
			for i := 0; i < per; i++ {
				ids = append(ids, d.Intern(S(fmt.Sprintf("shared%d", i)))) // contended
				ids = append(ids, d.Intern(I(int64(w*per+i))))             // private
				if id, ok := d.Lookup(S(fmt.Sprintf("shared%d", i))); !ok || id != ids[len(ids)-2] {
					panic("lookup disagrees with intern")
				}
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < per; i++ {
			if got[w][2*i] != got[0][2*i] {
				t.Fatalf("worker %d saw shared%d as %d, worker 0 saw %d", w, i, got[w][2*i], got[0][2*i])
			}
		}
	}
	if want := 1 + per + workers*per; d.Size() != want {
		t.Fatalf("dict holds %d values, want %d", d.Size(), want)
	}
}

func TestTupleIDRow(t *testing.T) {
	s := MustSchema("R", "a", "b", "c")
	d := NewDict()
	tu := MustTuple(s, S("x"), I(7), NullValue()).Intern(d)
	for i := 0; i < 3; i++ {
		id, ok := tu.IDIn(d, i)
		if !ok {
			t.Fatalf("position %d not cached after Intern", i)
		}
		if want := d.Intern(tu.At(i)); id != want {
			t.Fatalf("position %d cached %d, dict says %d", i, id, want)
		}
	}
	// SetAt invalidates (non-null) or fixes up (null).
	tu.SetAt(0, S("y"))
	if _, ok := tu.IDIn(d, 0); ok {
		t.Fatal("stale ID survived SetAt")
	}
	tu.SetAt(1, NullValue())
	if id, ok := tu.IDIn(d, 1); !ok || id != NullID {
		t.Fatalf("null SetAt cached (%d, %v), want (0, true)", id, ok)
	}
	// SetAtID re-validates; a different dict discards the whole row.
	tu.SetAtID(0, S("y"), d, d.Intern(S("y")))
	if id, ok := tu.IDIn(d, 0); !ok || id != d.Intern(S("y")) {
		t.Fatalf("SetAtID row = (%d, %v)", id, ok)
	}
	d2 := NewDict()
	tu.SetAtID(2, S("z"), d2, d2.Intern(S("z")))
	if _, ok := tu.IDIn(d, 0); ok {
		t.Fatal("cache for old dict answered after re-tagging")
	}
	if id, ok := tu.IDIn(d2, 2); !ok || id != d2.Intern(S("z")) {
		t.Fatalf("re-tagged row = (%d, %v)", id, ok)
	}
	// Clone carries the cache.
	cl := tu.Clone()
	if id, ok := cl.IDIn(d2, 2); !ok || id != d2.Intern(S("z")) {
		t.Fatal("clone lost the ID row")
	}
	cl.SetAt(2, S("w"))
	if _, ok := tu.IDIn(d2, 2); !ok {
		t.Fatal("mutating the clone touched the original's row")
	}
}

// TestDictLookupAcrossPromotion runs lock-free readers against a writer
// whose interning forces several promotions (run it under -race):
// values interned before the readers start must resolve to their IDs
// on every probe, and a value the writer interns must, once a reader
// finds it at all, resolve to the ID the writer got.
func TestDictLookupAcrossPromotion(t *testing.T) {
	d := NewDict()
	const old, fresh, readers = 100, 5_000, 4
	oldIDs := make([]uint32, old)
	for i := range oldIDs {
		oldIDs[i] = d.Intern(S(fmt.Sprintf("old%d", i)))
	}
	freshIDs := make([]uint32, fresh)
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := map[int]uint32{}
			for pass := 0; ; pass++ {
				for i, want := range oldIDs {
					if id, ok := d.Lookup(S(fmt.Sprintf("old%d", i))); !ok || id != want {
						errs <- fmt.Sprintf("reader %d: old%d = (%d, %v), want %d", r, i, id, ok, want)
						return
					}
				}
				for i := pass % 7; i < fresh; i += 97 {
					if id, ok := d.Lookup(I(int64(i))); ok {
						if prev, had := seen[i]; had && prev != id {
							errs <- fmt.Sprintf("reader %d: %d moved from ID %d to %d", r, i, prev, id)
							return
						}
						seen[i] = id
					}
				}
				select {
				case <-done:
					for i, id := range seen {
						if id != freshIDs[i] {
							errs <- fmt.Sprintf("reader %d: %d resolved to %d, writer got %d", r, i, id, freshIDs[i])
							return
						}
					}
					return
				default:
				}
			}
		}(r)
	}
	for i := range freshIDs {
		freshIDs[i] = d.Intern(I(int64(i)))
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if want := 1 + old + fresh; d.Size() != want {
		t.Fatalf("dict holds %d values, want %d", d.Size(), want)
	}
}

// dictOps decodes fuzz input into interning operations: each is a tag
// byte (low three bits: value shape; bit 3: Lookup instead of Intern)
// and its payload. The shapes favour the classes the dictionary folds —
// NaN, ±0, Int/Float, strings spelling a Bool or a number.
func dictOps(data []byte) (vals []Value, lookup []bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	specials := []float64{math.NaN(), -math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	texts := []string{"true", "false", "NaN", "0", "-0", "1", ""}
	for len(data) > 0 {
		tag := next()
		var v Value
		switch tag & 7 {
		case 0:
			v = NullValue()
		case 1:
			n := int(next() % 8)
			if n > len(data) {
				n = len(data)
			}
			v, data = S(string(data[:n])), data[n:]
		case 2:
			v = I(int64(int8(next())))
		case 3:
			v = F(float64(int8(next())) / 2)
		case 4:
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(next())
			}
			v = F(math.Float64frombits(bits))
		case 5:
			v = B(next()&1 == 1)
		case 6:
			v = S(texts[int(next())%len(texts)])
		case 7:
			v = F(specials[int(next())%len(specials)])
		}
		vals = append(vals, v)
		lookup = append(lookup, tag&8 != 0)
	}
	return vals, lookup
}

// FuzzDictIntern checks Dict against a map keyed by Value.Norm: IDs
// are handed out densely in first-intern order, Equal-up-to-Norm values
// share one, Lookup never interns, ValueOf returns the class's value,
// and every ID survives the promotions a run goes through.
func FuzzDictIntern(f *testing.F) {
	var grow []byte
	for i := 0; i < 40; i++ {
		grow = append(grow, 2, byte(i), 3, byte(i), 1, 2, 'k', byte(i), 0x0b, byte(i))
	}
	f.Add(grow)
	f.Add([]byte{7, 0, 7, 1, 7, 2, 7, 3, 3, 0, 2, 0, 0x0f, 0, 0x0f, 3, 7, 4, 7, 5})
	f.Add([]byte{5, 1, 6, 0, 5, 0, 6, 1, 6, 2, 7, 0, 0x0e, 3, 2, 0, 0x0d, 0})
	f.Add([]byte{4, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 4, 0xff, 0xf8, 0, 0, 0, 0, 0, 1, 4, 0x80, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 4, 't', 'r', 'u', 'e', 5, 1, 1, 3, 'N', 'a', 'N', 7, 0, 1, 1, '0', 2, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, lookup := dictOps(data)
		d := NewDict()
		ref := map[Value]uint32{NullValue(): NullID}
		for k, v := range vals {
			nv := v.Norm()
			want, known := ref[nv]
			if lookup[k] {
				if id, ok := d.Lookup(v); ok != known || id != want {
					t.Fatalf("op %d: Lookup(%s) = (%d, %v), want (%d, %v)", k, v.Quote(), id, ok, want, known)
				}
				continue
			}
			if !known {
				want = uint32(len(ref))
				ref[nv] = want
			}
			if id := d.Intern(v); id != want {
				t.Fatalf("op %d: Intern(%s) = %d, want %d", k, v.Quote(), id, want)
			}
			if got := d.ValueOf(want); got.Norm() != nv {
				t.Fatalf("op %d: ValueOf(%d) = %s, want the class of %s", k, want, got.Quote(), v.Quote())
			}
			if d.Size() != len(ref) {
				t.Fatalf("op %d: Size() = %d, want %d", k, d.Size(), len(ref))
			}
		}
		for nv, want := range ref {
			if id, ok := d.Lookup(nv); !ok || id != want {
				t.Fatalf("final Lookup(%s) = (%d, %v), want %d", nv.Quote(), id, ok, want)
			}
		}
	})
}
