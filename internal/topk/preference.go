// Package topk implements the top-k candidate-target algorithms of
// Section 6 of the paper: RankJoinCT (an extension of top-k rank-join),
// TopKCT (a priority-queue lattice enumeration that needs no ranked
// input and is instance optimal in heap pops), and TopKCTh (a PTIME
// greedy heuristic).
//
// Given a Church-Rosser specification whose deduced target te is
// incomplete, a candidate target instantiates the null attributes of te
// with values from the attributes' active domains (plus one default
// value ⊥ standing for "some value outside the data") such that the
// revised specification is still Church-Rosser — verified by the chase
// (the `check` of Section 6.1). Candidates are ranked by a monotone
// preference score p summing per-value weights w_Ai(v).
package topk

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/model"
)

// Bottom is the default value ⊥ denoting a value outside the active
// domain (Section 6.1); it always appears last in ranked lists unless
// the preference assigns it weight.
var Bottom = model.S("⊥")

// Preference is the preference model (k, p(·)) of Section 3.
type Preference struct {
	// K is the number of candidates requested.
	K int
	// Weight is w_Ai(v), the score of value v in attribute attr. Nil
	// defaults to occurrence counting over the entity instance.
	Weight func(attr string, v model.Value) float64
	// Domains optionally fixes the candidate values of an attribute
	// (e.g. {true, false} for a Boolean attribute). Attributes not
	// listed use the active domain of Ie ∪ Im plus ⊥.
	Domains map[string][]model.Value
	// MaxChecks bounds the number of chase-based candidate checks one
	// search may spend (0 = unlimited). The candidate-target problem is
	// NP-complete (Theorem 4), and adversarial instances make the exact
	// algorithms wade through large plateaus of equal-score failing
	// assignments; when the budget is exhausted the candidates found so
	// far are returned.
	MaxChecks int
	// MaxDomain caps each attribute's ranked candidate list (0 = 64).
	// Values carried by the entity instance always survive the cap; the
	// tail of zero-weight master-only values — interchangeable with ⊥
	// unless a master rule references them — is truncated. This guards
	// the search against master relations whose columns would otherwise
	// contribute thousands of candidate values per attribute.
	MaxDomain int
	// Parallel sets how many chase-based candidate checks run
	// concurrently, each on a pooled engine: 0 or 1 means one worker,
	// n > 1 uses n checker goroutines, and a negative value uses
	// GOMAXPROCS. It sets only the width of the one check driver (see
	// parallel.go): one worker checks candidates one at a time, in
	// order, with no speculation; wider runs verify speculatively but
	// exactly, so the candidate list, its order and the Stats counters
	// are the same at every width.
	Parallel int
}

// OccurrenceWeight builds the default preference used throughout the
// paper's experiments: w_Ai(v) is the number of occurrences of v in the
// Ai column of Ie (values only present in master data count 0, and ⊥
// counts 0).
func OccurrenceWeight(ie *model.EntityInstance) func(string, model.Value) float64 {
	counts := make(map[string]map[string]float64, ie.Schema().Arity())
	for a := 0; a < ie.Schema().Arity(); a++ {
		attr := ie.Schema().Attr(a)
		m := make(map[string]float64)
		for _, t := range ie.Tuples() {
			v := t.At(a)
			if !v.IsNull() {
				m[v.Key()]++
			}
		}
		counts[attr] = m
	}
	return func(attr string, v model.Value) float64 {
		return counts[attr][v.Key()]
	}
}

// MapWeight builds a preference from explicit per-attribute value
// scores, e.g. probabilities produced by a truth-discovery algorithm
// (Section 7, Exp-5). Missing entries score 0.
func MapWeight(scores map[string]map[string]float64) func(string, model.Value) float64 {
	return func(attr string, v model.Value) float64 {
		return scores[attr][v.Key()]
	}
}

// scoredValue is one ranked-list entry. The value's dictionary ID is
// interned once when the list is built, so every candidate assembled
// from the list carries a cached ID row and the chase-based check
// never hashes a value.
type scoredValue struct {
	v  model.Value
	w  float64
	id uint32
}

// Candidate is one verified candidate target.
type Candidate struct {
	Tuple *model.Tuple
	Score float64
}

// Stats reports the work an algorithm performed; the instance-optimality
// tests and the efficiency experiments read these.
type Stats struct {
	// Checks counts invocations of the candidate check (chase runs).
	Checks int
	// Pops counts value-heap (ranked-list) accesses.
	Pops int
	// Generated counts join combinations materialised (RankJoinCT) or
	// queue objects created (TopKCT).
	Generated int
}

// problem is the shared search state for all three algorithms.
type problem struct {
	g     *chase.Grounding
	te    *model.Tuple // deduced (incomplete) target
	pref  Preference
	zAttr []int           // schema positions of null attributes of te
	lists [][]scoredValue // per zAttr, descending weight
	pool  *chase.CheckerPool
	dict  *model.Dict // the grounding's value dictionary
	stats Stats
}

// newProblem derives the search space: the null attributes Z of te and
// their ranked value lists, every list value pre-interned in the
// grounding's dictionary. It rejects a non-positive K.
func newProblem(g *chase.Grounding, te *model.Tuple, pref Preference) (*problem, error) {
	if pref.K <= 0 {
		return nil, fmt.Errorf("topk: k must be positive, got %d", pref.K)
	}
	p := &problem{g: g, te: te, pref: pref, pool: g.Pool(), dict: g.Dict()}
	// Intern the deduced target once (on a clone, so the caller's tuple
	// is not touched): candidates are assembled from clones of p.te, so
	// this makes their KNOWN attributes dictionary hits by cache, not
	// per-check probes — the Z attributes get their IDs from the ranked
	// lists below.
	p.te = te.Clone().Intern(p.dict)
	if pref.Weight == nil {
		pref.Weight = OccurrenceWeight(g.Instance())
		p.pref.Weight = pref.Weight
	}
	schema := g.Schema()
	for a := 0; a < schema.Arity(); a++ {
		if !te.At(a).IsNull() {
			continue
		}
		attr := schema.Attr(a)
		maxDomain := pref.MaxDomain
		if maxDomain == 0 {
			maxDomain = 64
		}
		var vals []model.Value
		if dom, ok := pref.Domains[attr]; ok {
			vals = append([]model.Value(nil), dom...)
		} else {
			var counts []int
			vals, counts = model.ActiveDomain(g.Instance(), g.Master(), attr)
			if len(vals) > maxDomain {
				// Keep every instance-carried value plus the best-ranked
				// of the rest, and truncate the interchangeable tail.
				kept := vals[:0]
				for i, v := range vals {
					if counts[i] > 0 || len(kept) < maxDomain {
						kept = append(kept, v)
					}
				}
				vals = kept
			}
			vals = append(vals, Bottom)
		}
		list := make([]scoredValue, len(vals))
		for i, v := range vals {
			list[i] = scoredValue{v: v, w: pref.Weight(attr, v), id: p.dict.Intern(v)}
		}
		sortScored(list)
		p.zAttr = append(p.zAttr, a)
		p.lists = append(p.lists, list)
	}
	return p, nil
}

// sortScored orders by descending weight, ties broken by value key for
// determinism.
func sortScored(list []scoredValue) {
	// Insertion sort: lists are small and mostly ordered (ActiveDomain
	// already returns by descending occurrence).
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && scoredLess(list[j-1], list[j]); j-- {
			list[j-1], list[j] = list[j], list[j-1]
		}
	}
}

// scoredLess reports a < b in ranking order (higher weight first).
func scoredLess(a, b scoredValue) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.v.Key() > b.v.Key()
}

// baseScore is the score contribution of the non-null attributes of te;
// it is constant across candidates.
func (p *problem) baseScore() float64 {
	s := 0.0
	schema := p.g.Schema()
	for a := 0; a < schema.Arity(); a++ {
		if v := p.te.At(a); !v.IsNull() {
			s += p.pref.Weight(schema.Attr(a), v)
		}
	}
	return s
}

// assemble builds a complete tuple from te and the chosen Z values,
// carrying each value's cached dictionary ID so the chase check that
// receives it resolves every attribute without a dictionary probe.
func (p *problem) assemble(zv []scoredValue) *model.Tuple {
	t := p.te.Clone()
	for i, a := range p.zAttr {
		t.SetAtID(a, zv[i].v, p.dict, zv[i].id)
	}
	return t
}

// zKey identifies a Z-assignment for duplicate suppression and as the
// deterministic last tie-break of the priority queues. It concatenates
// value Keys — NOT dictionary IDs, which are assignment-order dependent
// and would make tie-breaking (and so candidate order) run-dependent.
func zKey(zv []scoredValue) string {
	k := ""
	for i, sv := range zv {
		if i > 0 {
			k += "\x1f"
		}
		k += sv.v.Key()
	}
	return k
}
