package topk_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/topk"
)

// synProblem grounds one synthetic entity and deduces its target.
func synProblem(t *testing.T, tuples, im, rules int) (*chase.Grounding, *chase.Result) {
	t.Helper()
	cfg := gen.SynDefault()
	cfg.Tuples = tuples
	cfg.Im = im
	cfg.Rules = rules
	ds := gen.GenerateSyn(cfg)
	g, err := chase.NewGrounding(chase.Spec{
		Ie: ds.Entities[0].Instance, Im: ds.Master, Rules: ds.Rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(nil)
	if !res.CR {
		t.Fatalf("synthetic spec not Church-Rosser: %s", res.Conflict)
	}
	return g, res
}

// sameCandidates asserts byte-identical candidate lists: same length,
// same tuples (by key) in the same order, same scores.
func sameCandidates(t *testing.T, label string, seq, par []topk.Candidate) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: sequential found %d candidates, parallel %d", label, len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Tuple.Key() != par[i].Tuple.Key() {
			t.Fatalf("%s: candidate %d differs: %s vs %s", label, i, seq[i].Tuple, par[i].Tuple)
		}
		if seq[i].Score != par[i].Score {
			t.Fatalf("%s: candidate %d score %v vs %v", label, i, seq[i].Score, par[i].Score)
		}
	}
}

func sameStats(t *testing.T, label string, seq, par topk.Stats) {
	t.Helper()
	if seq != par {
		t.Fatalf("%s: sequential stats %+v, parallel stats %+v", label, seq, par)
	}
}

// TestParallelMatchesSequential asserts that parallel verification is
// exact for all three algorithms: identical candidate lists, order and
// Stats across parallelism levels, with and without a MaxChecks budget.
// Run with -race this also exercises the concurrent checker pool.
func TestParallelMatchesSequential(t *testing.T) {
	configs := []struct{ tuples, im, rules int }{
		{40, 20, 25},
		{80, 40, 40},
	}
	for _, cfg := range configs {
		g, res := synProblem(t, cfg.tuples, cfg.im, cfg.rules)
		for _, k := range []int{1, 5, 15} {
			for _, maxChecks := range []int{0, 7, 200} {
				base := topk.Preference{K: k, MaxChecks: maxChecks}
				seqCT, seqCTStats, err := topk.TopKCT(g, res.Target, base)
				if err != nil {
					t.Fatal(err)
				}
				seqH, seqHStats, err := topk.TopKCTh(g, res.Target, base)
				if err != nil {
					t.Fatal(err)
				}
				seqRJ, seqRJStats, errRJ := topk.RankJoinCT(g, res.Target, base)
				if errRJ != nil && !errors.Is(errRJ, topk.ErrBudget) {
					t.Fatal(errRJ)
				}
				for _, par := range []int{2, 4, -1} {
					label := fmt.Sprintf("syn(%d,%d,%d) k=%d budget=%d par=%d",
						cfg.tuples, cfg.im, cfg.rules, k, maxChecks, par)
					pref := base
					pref.Parallel = par

					parCT, parCTStats, err := topk.TopKCT(g, res.Target, pref)
					if err != nil {
						t.Fatal(err)
					}
					sameCandidates(t, label+" TopKCT", seqCT, parCT)
					sameStats(t, label+" TopKCT", seqCTStats, parCTStats)

					parH, parHStats, err := topk.TopKCTh(g, res.Target, pref)
					if err != nil {
						t.Fatal(err)
					}
					sameCandidates(t, label+" TopKCTh", seqH, parH)
					sameStats(t, label+" TopKCTh", seqHStats, parHStats)

					parRJ, parRJStats, err := topk.RankJoinCT(g, res.Target, pref)
					if (err != nil) != (errRJ != nil) || (err != nil && !errors.Is(err, topk.ErrBudget)) {
						t.Fatalf("%s RankJoinCT: err %v, sequential err %v", label, err, errRJ)
					}
					sameCandidates(t, label+" RankJoinCT", seqRJ, parRJ)
					sameStats(t, label+" RankJoinCT", seqRJStats, parRJStats)
				}
			}
		}
	}
}

// TestParallelMedEntities sweeps parallel TopKCT over generated Med
// entities (the workload of the quality experiments), asserting
// equality with the sequential run per entity.
func TestParallelMedEntities(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 40
	ds := gen.Generate(cfg)
	for i, e := range ds.Entities {
		g, err := chase.NewGrounding(chase.Spec{Ie: e.Instance, Im: ds.Master, Rules: ds.Rules}, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := g.Run(nil)
		if !res.CR || res.Target.Complete() {
			continue
		}
		seq, seqStats, err := topk.TopKCT(g, res.Target, topk.Preference{K: 10, MaxChecks: 4000})
		if err != nil {
			t.Fatal(err)
		}
		par, parStats, err := topk.TopKCT(g, res.Target, topk.Preference{K: 10, MaxChecks: 4000, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("med entity %d", i)
		sameCandidates(t, label, seq, par)
		sameStats(t, label, seqStats, parStats)
	}
}

// TestOneWorkerRunsNoSpeculativeCheck: at Parallel 0 and 1 every wave
// of the check driver holds one candidate, so the chase checks a search
// runs — the verdict cache's hits plus misses — are exactly the checks
// its Stats report, with none speculated past the k-th pass.
func TestOneWorkerRunsNoSpeculativeCheck(t *testing.T) {
	g, res := synProblem(t, 80, 40, 40)
	algos := []struct {
		name string
		run  func(*chase.Grounding, *model.Tuple, topk.Preference) ([]topk.Candidate, topk.Stats, error)
	}{
		{"TopKCT", topk.TopKCT},
		{"RankJoinCT", topk.RankJoinCT},
		{"TopKCTh", topk.TopKCTh},
	}
	for _, par := range []int{0, 1} {
		for _, a := range algos {
			before := g.VerdictCacheStats()
			_, stats, err := a.run(g, res.Target, topk.Preference{K: 5, Parallel: par})
			if err != nil {
				t.Fatal(err)
			}
			after := g.VerdictCacheStats()
			ran := after.Hits - before.Hits + after.Misses - before.Misses
			if stats.Checks == 0 || ran != int64(stats.Checks) {
				t.Errorf("%s par=%d: ran %d checks, Stats report %d", a.name, par, ran, stats.Checks)
			}
		}
	}
}
