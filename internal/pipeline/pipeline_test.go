package pipeline

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/er"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
	"repro/internal/topk"
)

// testDataset generates a small Med-style dataset: many entities, one
// schema, master data and a full rule set.
func testDataset(t *testing.T, entities int) *gen.Dataset {
	t.Helper()
	cfg := gen.MedConfig()
	cfg.NumEntities = entities
	return gen.Generate(cfg)
}

func instances(ds *gen.Dataset) []*model.EntityInstance {
	out := make([]*model.EntityInstance, len(ds.Entities))
	for i, e := range ds.Entities {
		out[i] = e.Instance
	}
	return out
}

// fingerprint renders everything a Result exposes for one entity, so
// equality means byte-identical per-entity output.
func fingerprint(r Result) string {
	if r.Err != nil {
		return "err:" + r.Err.Error()
	}
	s := fmt.Sprintf("cr=%v conflict=%q", r.Deduction.CR, r.Deduction.Conflict)
	if r.Deduction.CR {
		s += " target=" + r.Deduction.Target.Key()
	}
	for _, c := range r.Candidates {
		s += fmt.Sprintf(" cand=%s@%.6f", c.Tuple.Key(), c.Score)
	}
	s += fmt.Sprintf(" checks=%d pops=%d gen=%d", r.Stats.Checks, r.Stats.Pops, r.Stats.Generated)
	return s
}

// TestRunMatchesSequentialSession is the pipeline equivalence guarantee:
// with workers=N, every per-entity result is identical to a sequential
// core.Session run over the same entity (run under -race in CI).
func TestRunMatchesSequentialSession(t *testing.T) {
	ds := testDataset(t, 40)
	ents := instances(ds)
	cfg := Config{Master: ds.Master, Rules: ds.Rules, Workers: 8, TopK: 5,
		Pref: topk.Preference{MaxChecks: 2000}}
	results, sum, err := Run(ents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entities != len(ents) || len(results) != len(ents) {
		t.Fatalf("got %d results, summary %d entities, want %d", len(results), sum.Entities, len(ents))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		sess, err := core.NewSession(ents[i], ds.Master, ds.Rules)
		if err != nil {
			t.Fatal(err)
		}
		want := Result{Index: i, Instance: ents[i], Deduction: sess.Deduce()}
		if want.Deduction.CR && !want.Deduction.Target.Complete() {
			cands, stats, err := sess.TopK(core.Preference{K: 5, MaxChecks: 2000}, core.AlgoTopKCT)
			if err != nil {
				t.Fatal(err)
			}
			want.Candidates, want.Stats = cands, stats
		}
		if got, exp := fingerprint(r), fingerprint(want); got != exp {
			t.Fatalf("entity %d:\npipeline:   %s\nsequential: %s", i, got, exp)
		}
	}
}

// TestRunWorkerIndependence pins the other half of the guarantee: the
// worker count never changes any per-entity output.
func TestRunWorkerIndependence(t *testing.T) {
	ds := testDataset(t, 24)
	ents := instances(ds)
	base, _, err := Run(ents, Config{Master: ds.Master, Rules: ds.Rules, Workers: 1, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		got, _, err := Run(ents, Config{Master: ds.Master, Rules: ds.Rules, Workers: w, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if fingerprint(got[i]) != fingerprint(base[i]) {
				t.Fatalf("workers=%d entity %d: %s != %s", w, i, fingerprint(got[i]), fingerprint(base[i]))
			}
		}
	}
}

// TestStreamOrderAndProgress checks that the sink sees results in input
// order even though workers finish out of order.
func TestStreamOrderAndProgress(t *testing.T) {
	ds := testDataset(t, 30)
	var seen []int
	src := SliceSource(instances(ds))
	sum, err := Stream(testShared(t, ds), &src, Config{Master: ds.Master, Rules: ds.Rules, Workers: 6},
		func(r Result) error {
			seen = append(seen, r.Index)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entities != 30 {
		t.Fatalf("summary has %d entities, want 30", sum.Entities)
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("sink saw index %d at position %d", idx, i)
		}
	}
}

// TestStreamSinkError checks that a sink error stops the batch early
// and is returned.
func TestStreamSinkError(t *testing.T) {
	ds := testDataset(t, 20)
	boom := errors.New("boom")
	calls := 0
	src := SliceSource(instances(ds))
	_, err := Stream(testShared(t, ds), &src, Config{Master: ds.Master, Rules: ds.Rules, Workers: 4},
		func(r Result) error {
			calls++
			if r.Index == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 4 {
		t.Fatalf("sink ran %d times, want 4", calls)
	}
}

// TestBadEntityDoesNotAbortBatch: one empty-schema... rather, one
// entity over a different schema is rejected up front, while a non-CR
// entity flows through as a per-entity verdict, not an error.
func TestBadEntityDoesNotAbortBatch(t *testing.T) {
	s := model.MustSchema("r", "v", "price")
	// Two clean single-tuple entities around one whose rules conflict:
	// the up/down pair orders any two distinct-v tuples both ways on
	// price, so an entity with two tuples of differing prices is not
	// Church-Rosser.
	rules, err := core.ParseRules(`
		up:   t1[v] < t2[v] -> t1 <= t2 @ price
		down: t2[v] < t1[v] -> t1 <= t2 @ price
	`, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(vals ...model.Value) *model.EntityInstance {
		ie := model.NewEntityInstance(s)
		for i := 0; i+1 < len(vals); i += 2 {
			ie.MustAdd(model.MustTuple(s, vals[i], vals[i+1]))
		}
		return ie
	}
	good1 := mk(model.I(1), model.S("9.99"))
	bad := mk(model.I(1), model.S("9.99"), model.I(2), model.S("10.99")) // both orders forced
	good2 := mk(model.I(2), model.S("10.49"))
	results, sum, err := Run([]*model.EntityInstance{good1, bad, good2},
		Config{Rules: rules, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entities != 3 || sum.NotCR != 1 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want 3 entities, 1 not-CR, 0 errors", sum)
	}
	if results[1].Deduction.CR {
		t.Fatal("conflicting entity reported Church-Rosser")
	}
	for _, i := range []int{0, 2} {
		if !results[i].Deduction.CR || !results[i].Deduction.Target.Complete() {
			t.Fatalf("entity %d should deduce completely: %+v", i, results[i].Deduction)
		}
	}
}

// TestMixedSchemaRejected: schema mismatches are a batch-level error,
// reported before any work starts — even when the odd entity out is the
// last of many.
func TestMixedSchemaRejected(t *testing.T) {
	s1 := model.MustSchema("a", "x")
	s2 := model.MustSchema("b", "x")
	ms := model.MustSchema("m", "x")
	im := model.NewMasterRelation(ms)
	rules, err := core.ParseRules("", s1, ms)
	if err != nil {
		t.Fatal(err)
	}
	var ents []*model.EntityInstance
	for i := 0; i < 11; i++ {
		e := model.NewEntityInstance(s1)
		e.MustAdd(model.MustTuple(s1, model.S(fmt.Sprintf("only-in-entity-%d", i))))
		ents = append(ents, e)
	}
	odd := model.NewEntityInstance(s2)
	odd.MustAdd(model.MustTuple(s2, model.I(1)))
	ents = append(ents, odd)

	// Grounding interns an entity's values into the groundwork's
	// dictionary, which is memoised per (schema, master, rules): Run
	// builds its groundwork on this same dictionary, so an unchanged
	// size means no entity was grounded.
	shared, err := chase.NewShared(s1, im, rules)
	if err != nil {
		t.Fatal(err)
	}
	dict := shared.Dict()
	before := dict.Size()
	cfg := Config{Master: im, Rules: rules, Workers: 4}
	results, sum, err := Run(ents, cfg)
	if err == nil {
		t.Fatal("mixed schemas were accepted")
	}
	if len(results) != 0 || sum.Entities != 0 {
		t.Fatalf("rejected batch delivered %d results, summary %+v", len(results), sum)
	}
	if dict.Size() != before {
		t.Fatalf("rejected batch grounded entities: dictionary grew %d -> %d", before, dict.Size())
	}
	// Control: the same entities without the odd one out do ground,
	// and grow the same dictionary.
	if _, _, err := Run(ents[:len(ents)-1], cfg); err != nil {
		t.Fatal(err)
	}
	if dict.Size() == before {
		t.Fatal("grounding left the dictionary unchanged; the check above proves nothing")
	}
}

// TestEmptyBatch: no entities is a valid (empty) batch.
func TestEmptyBatch(t *testing.T) {
	results, sum, err := Run(nil, Config{})
	if err != nil || len(results) != 0 || sum.Entities != 0 {
		t.Fatalf("empty batch: results=%d sum=%+v err=%v", len(results), sum, err)
	}
}

// TestEach mirrors the bench drivers' use: index-addressed writes, the
// lowest-index error wins.
func TestEach(t *testing.T) {
	out := make([]int, 100)
	if err := Each(7, len(out), func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	err := Each(5, 50, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("e%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "e3" {
		t.Fatalf("err = %v, want e3", err)
	}
}

// settledTarget is the target a result settles on: the complete
// deduction, else the best verified candidate, else nil.
func settledTarget(r Result) *model.Tuple {
	switch r.Status() {
	case "complete":
		return r.Deduction.Target
	case "candidates":
		return r.Candidates[0].Tuple
	}
	return nil
}

// TestResolveRunGeneratedAccuracy: a generated Med relation, flattened
// into one dirty relation, goes through er.Resolve and Run with top-1
// filling; the settled targets must recover the ground truth.
func TestResolveRunGeneratedAccuracy(t *testing.T) {
	ds := testDataset(t, 120)
	var tuples []*model.Tuple
	for _, e := range ds.Entities {
		tuples = append(tuples, e.Instance.Tuples()...)
	}
	// The generator's name attribute is the natural ER key.
	ents, err := er.Resolve(tuples, ds.Schema,
		er.Config{KeyAttrs: []string{"name"}, BlockAttr: "name", BlockPrefix: 12, Threshold: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	results, sum, err := Run(ents, Config{Master: ds.Master, Rules: ds.Rules, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entities != len(ds.Entities) {
		t.Fatalf("ER recovered %d entities, want %d", sum.Entities, len(ds.Entities))
	}
	truthByName := map[string]*model.Tuple{}
	for _, e := range ds.Entities {
		truthByName[e.ID] = e.Truth
	}
	total, correct := 0, 0
	for _, r := range results {
		f := settledTarget(r)
		if f == nil {
			continue
		}
		name, _ := f.Get("name")
		truth := truthByName[name.Str()]
		if truth == nil {
			t.Fatalf("settled target with unknown name %v", name)
		}
		for a := 0; a < ds.Schema.Arity(); a++ {
			if f.At(a).IsNull() {
				continue
			}
			total++
			if f.At(a).Equal(truth.At(a)) {
				correct++
			}
		}
	}
	rate := float64(correct) / float64(total)
	t.Logf("non-null attribute accuracy %.3f; %s", rate, sum.String())
	if rate < 0.85 {
		t.Errorf("settled accuracy %.3f too low", rate)
	}
	if sum.NotCR != 0 {
		t.Errorf("generated dataset should be conflict-free, got %d not-CR", sum.NotCR)
	}
	if sum.WithCandidates == 0 {
		t.Errorf("expected some top-k-filled entities: %s", sum.String())
	}
}

// TestResolveRunPaperExample: the paper's four Michael Jordan tuples,
// resolved alongside a second planted entity, settle on the paper's
// target.
func TestResolveRunPaperExample(t *testing.T) {
	schema := paperdata.StatSchema()
	var tuples []*model.Tuple
	for _, tp := range paperdata.Stat().Tuples() {
		nt := model.NewTuple(schema)
		for a := 0; a < schema.Arity(); a++ {
			nt.SetAt(a, tp.At(a))
		}
		tuples = append(tuples, nt)
	}
	// A second entity: Scottie Pippen, two consistent tuples.
	null := model.NullValue()
	tuples = append(tuples,
		model.MustTuple(schema, model.S("Scottie"), null, model.S("Pippen"),
			model.I(10), model.I(170), model.I(33), model.S("NBA"),
			model.S("Chicago Bulls"), model.S("United Center")),
		model.MustTuple(schema, model.S("Scottie"), null, model.S("Pippen"),
			model.I(20), model.I(350), model.I(33), model.S("NBA"),
			model.S("Chicago Bulls"), model.S("United Center")),
	)
	im := paperdata.NBA()
	rules, err := rule.NewSet(schema, im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := er.Resolve(tuples, schema, er.Config{KeyAttrs: []string{"LN"}, Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// t1 carries LN = null, which never matches the ER key, so it may
	// form its own cluster: 2 or 3 entities are both legitimate.
	if len(ents) < 2 || len(ents) > 3 {
		t.Fatalf("entities = %d, want 2 or 3", len(ents))
	}
	results, _, err := Run(ents, Config{Master: im, Rules: rules, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range results {
		f := settledTarget(r)
		if f == nil {
			continue
		}
		if f.EqualTo(paperdata.Target()) {
			return
		}
		got = append(got, f.String())
	}
	t.Errorf("paper target not among settled targets: %v", got)
}

// TestResolveRunNotCRSettlesNothing: an entity whose rules conflict is
// reported with its conflict and settles on no target, even with top-k
// filling requested.
func TestResolveRunNotCRSettlesNothing(t *testing.T) {
	s := model.MustSchema("r", "id", "v")
	rules, err := core.ParseRules(`
		up:   t1[v] < t2[v] -> t1 <= t2 @ v
		down: t1[v] > t2[v] -> t1 <= t2 @ v
	`, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := er.Resolve([]*model.Tuple{
		model.MustTuple(s, model.S("e1"), model.I(1)),
		model.MustTuple(s, model.S("e1"), model.I(2)),
	}, s, er.Config{KeyAttrs: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	results, sum, err := Run(ents, Config{Rules: rules, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || sum.NotCR != 1 {
		t.Fatalf("results = %d, summary %+v; want one not-CR entity", len(results), sum)
	}
	r := results[0]
	if r.Status() != "not-church-rosser" || r.Deduction.Conflict == "" {
		t.Errorf("want not-church-rosser with conflict, got %s %q", r.Status(), r.Deduction.Conflict)
	}
	if f := settledTarget(r); f != nil || len(r.Candidates) != 0 {
		t.Errorf("not-CR entity settled on %v with %d candidates", f, len(r.Candidates))
	}
}
