package chase

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/vcache"
)

// Extend absorbs new evidence tuples into the grounded specification
// and returns a NEW grounding version; the receiver is left exactly as
// it was, so in-flight Runs, Checkers and CheckBatches against it are
// unaffected and later checks against it keep answering for the old
// evidence. Each version is immutable after construction, which
// carries the concurrency story of a fresh grounding over to the
// incremental path; a version does NOT keep its parent alive — it
// shares only the step prefix and the (bounded) trigger layers — so
// superseded versions are garbage-collected once their readers finish.
//
// Extend is the delta form of the paper's Instantiation (Section 5):
// only the new-tuple × existing-tuple and new-tuple × new-tuple pairs
// are partially evaluated — O(‖Σ‖·d·n) ground work for d added tuples
// instead of the O(‖Σ‖·n²) full rebuild — against the same precompiled
// form-(2) index the parent uses (it depends on master data and te
// conditions only, never on Ie). The template-independent base chase
// then RESUMES from the parent's terminal state rather than replaying
// from scratch: the chase is monotone, so every consequence the parent
// enforced stays enforced, and only the new tuples' axiom seeds, the
// newly grounded steps and any old steps they newly enable are chased.
// The result answers exactly like grounding the full instance fresh:
// deduced targets, CR verdicts, terminal orders, step counts, top-k
// candidates and stats are byte-identical (enforced by extend_test.go
// and the core equivalence tests). The one deliberate exception is the
// conflict WITNESS of a non-Church-Rosser specification grown from a
// non-empty parent: which invalid step gets reported first depends on
// enforcement order, so the Conflict string may name a different
// (equally valid) culprit than a fresh grounding's. A zero-tuple parent
// replays the fresh grounding exactly, witness included.
func (g *Grounding) Extend(tuples ...*model.Tuple) (*Grounding, error) {
	if len(tuples) == 0 {
		return g, nil
	}
	ie2, err := g.ie.Extend(tuples...)
	if err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	return g.grow(ie2, g.useAxioms, g.verdicts.NextVersion())
}

// grow builds the version of p over ie, which holds p's tuples followed
// by the new ones. It is the one construction path: Shared.NewGrounding
// grows version 0 from the zero-tuple root and Extend grows the next
// version from its receiver. Freshness is read only off p's own state —
// a zero-tuple parent has empty relations, so its child seeds the axioms
// in bulk and grounds into a dense pair set, while a populated parent's
// child runs every seed through the worklist and dedups sparsely.
//
//relacc:grounding-builder
func (p *Grounding) grow(ie *model.EntityInstance, useAxioms bool, verdicts *vcache.Cache[string]) (*Grounding, error) {
	if ie.Size() >= maxTuples {
		return nil, fmt.Errorf("chase: instance holds %d tuples, limit is %d", ie.Size(), maxTuples-1)
	}
	ng := &Grounding{
		ie:        ie,
		im:        p.im,
		schema:    p.schema,
		n:         ie.Size(),
		nattr:     p.nattr,
		useAxioms: useAxioms,
		// The dictionary is shared across versions: new values are
		// interned into it (append-only, readers never blocked), so
		// every ID the parent version issued — cached in candidate
		// tuples, trigger premises, the form-(2) index — stays valid
		// here. See the DESIGN.md invariant on ID stability.
		dict: p.dict,
		// The step prefix is shared with the parent; the full slice
		// expression forces the first new step onto a fresh backing
		// array instead of overwriting the parent's.
		steps:     p.steps[:len(p.steps):len(p.steps)],
		orderTrig: make(map[uint64][]predRef),
		// Instance-independent; never mutated after NewShared.
		form1: p.form1,
		corrs: p.corrs,
		form2: p.form2,
		// The verdict cache is version-private: a successor starts
		// empty (old verdicts answer for the old evidence) but shares
		// the chain's cumulative hit/miss counters. nil stays nil.
		verdicts: verdicts,
		version:  p.version + 1,
	}
	// Stack the parent's trigger layers (sharing the maps, not the
	// parent itself — its heavy state must stay collectable), then
	// fold them together once the stack gets deep so lookup cost stays
	// bounded on long update streams.
	ng.ancestors = append([]trigLayer(nil), p.ancestors...)
	if l, ok := p.ownLayer(); ok {
		ng.ancestors = append(ng.ancestors, l)
	}
	ng.extendValues(p)
	zero := ng.groundDelta(int32(p.n))
	if len(ng.ancestors) > maxTrigLayers {
		ng.compactTriggers()
	}
	ng.hasOrderTrig = len(ng.orderTrig) > 0
	for _, l := range ng.ancestors {
		ng.hasOrderTrig = ng.hasOrderTrig || len(l.orderTrig) > 0
	}
	ng.baseChase(p, zero)
	return ng, nil
}

// maxTrigLayers bounds the trigger-layer stack: when an Extend would
// exceed it, every layer is merged into the new version's own maps
// (O(total triggers), amortised over maxTrigLayers versions), so
// per-fact trigger lookups never walk more than maxTrigLayers+1 maps
// however many deltas an entity has absorbed.
const maxTrigLayers = 32

// compactTriggers folds the ancestor layers into this version's own
// trigger maps. Layers are merged oldest first and the own layer last,
// which keeps every key's refs sorted by step index — the same order a
// fresh grounding registers them in.
//
//relacc:grounding-builder
func (ng *Grounding) compactTriggers() {
	merged := make(map[uint64][]predRef)
	mt := make([][]predRef, ng.nattr)
	for _, l := range ng.ancestors {
		for k, refs := range l.orderTrig {
			merged[k] = append(merged[k], refs...)
		}
		for a, refs := range l.targetTrig {
			mt[a] = append(mt[a], refs...)
		}
	}
	for k, refs := range ng.orderTrig {
		merged[k] = append(merged[k], refs...)
	}
	for a, refs := range ng.targetTrig {
		mt[a] = append(mt[a], refs...)
	}
	ng.orderTrig, ng.targetTrig, ng.ancestors = merged, mt, nil
}

// Version reports how many evidence deltas this grounding has absorbed:
// 0 for a fresh grounding, incremented by each Extend.
func (g *Grounding) Version() int { return g.version }

// extendValues builds the per-version value indexes: the parent's ID
// rows are copied (they are O(nattr·n) uint32s, cheap next to any
// chase work), the new tuples' values interned into the shared
// dictionary, and the value groups extended copy-on-append — a group
// gaining no member shares its slice with the parent, so the parent's
// groups (which in-flight checkers on the old version may be reading)
// never change.
//
//relacc:grounding-builder
func (ng *Grounding) extendValues(p *Grounding) {
	n, na, oldN := ng.n, ng.nattr, p.n
	ng.valID = make([][]uint32, na)
	ng.vals = make([][]model.Value, na)
	ng.groups = make([]idGroups, na)
	ng.targetTrig = make([][]predRef, na)
	for a := 0; a < na; a++ {
		ids := make([]uint32, n)
		vs := make([]model.Value, n)
		copy(ids, p.valID[a])
		copy(vs, p.vals[a])
		for i := oldN; i < n; i++ {
			v := ng.ie.Value(i, a)
			vs[i] = v
			if !v.IsNull() {
				ids[i] = ng.dict.Intern(v)
			}
		}
		ng.valID[a], ng.vals[a] = ids, vs
		ng.groups[a] = p.groups[a].extend(ids, oldN)
	}
}

// groundDelta performs Instantiation for the pairs involving a tuple at
// index oldN or later: it materialises residual ground steps, registers
// their triggers, and returns the zero-premise order pairs to seed the
// base chase with. Correlation-shaped rules compile to
// instance-independent triggers at NewShared, and form-(2) rules live
// in the shared index, so only the plain form-(1) rules ground steps.
// Zero pairs are deduplicated across rules (rule sets often contain
// several rules with the same consequence, per the paper's Exp setup),
// which bounds their number by #attrs·|Ie|².
func (g *Grounding) groundDelta(oldN int32) []packedPair {
	var zero []packedPair
	var seen *pairSet
	if oldN == 0 {
		seen = newPairSet(g.nattr, g.n)
	} else {
		seen = newSparsePairSet()
	}
	for k := range g.form1 {
		zero = g.groundForm1(&g.form1[k], zero, seen, oldN)
	}
	return zero
}

// newDeltaEngine primes a base-mode engine with the parent's terminal
// base state, extended to the new instance size: order matrices grow
// empty rows for the new tuples, λ counts and premise counters carry
// over, and the new steps start with their full premise counts.
func newDeltaEngine(ng, p *Grounding) *engine {
	e := &engine{
		g:      ng,
		base:   true,
		orders: p.baseOrders.Extend(ng.n - p.n),
		counts: make([][]int32, ng.nattr),
		npred:  make([]int32, len(ng.steps)),
		dead:   make([]bool, len(ng.steps)),
		pushed: make([]bool, len(ng.steps)),
	}
	for a := range e.counts {
		e.counts[a] = make([]int32, ng.n)
		copy(e.counts[a], p.baseCounts[a])
	}
	copy(e.npred, p.baseNpred)
	for s := len(p.steps); s < len(ng.steps); s++ {
		e.npred[s] = int32(len(ng.steps[s].preds))
	}
	copy(e.pushed, p.basePushed)
	e.stepsApplied = p.baseSteps
	return e
}

// baseChase chases every template-independent consequence (axiom
// seeds, zero-premise pairs, order-triggered steps, correlation
// cascades) into the base snapshot reused by Run, resuming from the
// parent's terminal state. Monotonicity is what makes resumption sound:
// a chase step enforced by the parent stays enforced under more
// evidence, so only the new tuples' axiom seeds, the new ground steps
// and old steps whose premises the new facts complete need replaying.
// New facts propagate through the layered triggers into old steps, and
// closure insertion may derive old×old pairs bridged by a new tuple.
//
//relacc:grounding-builder
func (ng *Grounding) baseChase(p *Grounding, zeroPairs []packedPair) {
	e := newDeltaEngine(ng, p)
	if p.baseConflict != "" {
		// The old evidence already made the base chase conflict; more
		// evidence cannot retract an enforced step.
		ng.snapshotBase(e)
		ng.baseConflict = p.baseConflict
		return
	}
	if p.n == 0 {
		ng.seedEmpty(e)
	} else if ng.useAxioms {
		ng.seedDeltaAxioms(e, p.n)
	}
	for _, pr := range zeroPairs {
		e.pushPair(pr.attr, pr.i, pr.j)
	}
	for s := len(p.steps); s < len(ng.steps); s++ {
		if e.npred[s] == 0 {
			e.pushStep(int32(s))
		}
	}
	e.drain()
	ng.snapshotBase(e)
}

// seedEmpty seeds empty relations: the axiom state ϕ7 + ϕ9 goes in as
// closure-safe bulk writes, then the column counts of the seeded state
// are derived and the order triggers and correlation rules that state
// already satisfies are fired — the work the worklist would have done
// had each seed gone through applyPair.
func (ng *Grounding) seedEmpty(e *engine) {
	if ng.useAxioms {
		for a := 0; a < ng.nattr; a++ {
			rel := e.orders.Attr(a)
			var nulls, nonNulls []int32
			for i := 0; i < ng.n; i++ {
				if ng.valID[a][i] == model.NullID {
					nulls = append(nulls, int32(i))
				} else {
					nonNulls = append(nonNulls, int32(i))
				}
			}
			for _, grp := range ng.sortedGroups(a) {
				rel.SetClique32(grp)
			}
			rel.SetClique32(nulls)
			rel.SetBelow32(nulls, nonNulls)
		}
	}
	// Derive column counts of the seeded state, reusing one buffer
	// across the attributes.
	cbuf := make([]int, ng.n)
	for a := 0; a < ng.nattr; a++ {
		for j, c := range e.orders.Attr(a).ColumnCountsInto(cbuf) {
			e.counts[a][j] = int32(c)
		}
	}
	// Fire order triggers already satisfied by the seeded state, in
	// deterministic key order. A zero-tuple parent registered none, so
	// this version's own map holds them all.
	keys := make([]uint64, 0, len(ng.orderTrig))
	for k := range ng.orderTrig {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		attr, i, j := trigKeyDecode(k)
		if e.orders.Attr(int(attr)).Has(int(i), int(j)) {
			e.fireOrderKey(k)
		}
	}
	// Fire correlation rules on the seeded pairs, one row word at a
	// time.
	for a := 0; a < ng.nattr; a++ {
		if len(ng.corrs[a]) == 0 {
			continue
		}
		aa := int32(a)
		e.orders.Attr(a).VisitWords(func(i, wi int, diff uint64) {
			e.fireCorrWord(aa, int32(i), wi, diff)
		})
	}
}

// seedDeltaAxioms enforces ϕ7/ϕ9 for the new tuples through the regular
// worklist: unlike seedEmpty's closure-safe bulk writes, it runs against
// a populated relation, so every seed goes through applyPair and gets
// closure propagation, trigger firing and correlation cascades for
// free. Already-derived pairs are no-ops.
func (ng *Grounding) seedDeltaAxioms(e *engine, oldN int) {
	for a := 0; a < ng.nattr; a++ {
		aa := int32(a)
		ids := ng.valID[a]
		for i := oldN; i < ng.n; i++ {
			e.pushPair(aa, int32(i), int32(i)) // ϕ9, reflexive
		}
		// ϕ9: each new tuple is mutually ⪯ the tuples sharing its value.
		for i := oldN; i < ng.n; i++ {
			if ids[i] == model.NullID {
				continue
			}
			for _, j := range ng.groupFor(aa, ids[i]) {
				if int(j) == i {
					continue
				}
				e.pushPair(aa, int32(i), j)
				e.pushPair(aa, j, int32(i))
			}
		}
		// ϕ7: null values have the lowest accuracy — a new null joins
		// the null clique and sits below every non-null; a new non-null
		// sits above every old null (new nulls reach it via their own
		// loop).
		for i := oldN; i < ng.n; i++ {
			ii := int32(i)
			if ids[i] == model.NullID {
				for j := 0; j < ng.n; j++ {
					if j == i {
						continue
					}
					if ids[j] == model.NullID {
						e.pushPair(aa, ii, int32(j))
						e.pushPair(aa, int32(j), ii)
					} else {
						e.pushPair(aa, ii, int32(j))
					}
				}
			} else {
				for j := 0; j < oldN; j++ {
					if ids[j] == model.NullID {
						e.pushPair(aa, int32(j), ii)
					}
				}
			}
		}
	}
}

// snapshotBase freezes the engine's terminal state as this version's
// base snapshot.
//
//relacc:grounding-builder
func (g *Grounding) snapshotBase(e *engine) {
	g.baseOrders = e.orders
	g.baseCounts = e.counts
	g.baseNpred = e.npred
	g.basePushed = e.pushed
	g.baseSteps = e.stepsApplied
	g.baseConflict = e.conflict
}
