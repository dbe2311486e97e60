package framework_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/framework"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
	"repro/internal/topk"
)

func grounding(t *testing.T, drop ...string) *chase.Grounding {
	t.Helper()
	ie := paperdata.Stat()
	im := paperdata.NBA()
	skip := map[string]bool{}
	for _, d := range drop {
		skip[d] = true
	}
	var rules []rule.Rule
	for _, r := range paperdata.Rules() {
		if !skip[r.Name()] {
			rules = append(rules, r)
		}
	}
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), rules...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNoInteractionNeeded: the full rule set deduces a complete target
// with zero rounds.
func TestNoInteractionNeeded(t *testing.T) {
	g := grounding(t)
	oracle := &framework.GroundTruthOracle{Truth: paperdata.Target()}
	out, err := framework.Run(g, framework.Config{Pref: topk.Preference{K: 5}}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || out.Rounds != 0 || out.AcceptedCandidate {
		t.Errorf("Found=%v Rounds=%d Accepted=%v", out.Found, out.Rounds, out.AcceptedCandidate)
	}
	if !out.Target.EqualTo(paperdata.Target()) {
		t.Errorf("target = %s", out.Target)
	}
}

// TestCandidateAccepted: with phi6b dropped, the target is incomplete
// but the true tuple appears in the top-k and is accepted without any
// reveal round.
func TestCandidateAccepted(t *testing.T) {
	g := grounding(t, "phi6b")
	oracle := &framework.GroundTruthOracle{Truth: paperdata.Target()}
	out, err := framework.Run(g, framework.Config{Pref: topk.Preference{K: 5}}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || !out.AcceptedCandidate || out.Rounds != 0 {
		t.Errorf("Found=%v Accepted=%v Rounds=%d", out.Found, out.AcceptedCandidate, out.Rounds)
	}
	if !out.Target.EqualTo(paperdata.Target()) {
		t.Errorf("target = %s", out.Target)
	}
}

// TestRevealLoop: with k=1 and several rules dropped, acceptance can
// fail, forcing reveal rounds until the target completes.
func TestRevealLoop(t *testing.T) {
	g := grounding(t, "phi6a", "phi6b", "phi11", "phi4")
	oracle := &framework.GroundTruthOracle{Truth: paperdata.Target()}
	out, err := framework.Run(g, framework.Config{Pref: topk.Preference{K: 1}}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatalf("loop should converge; rounds=%d target=%s", out.Rounds, out.Target)
	}
	if !out.Target.EqualTo(paperdata.Target()) {
		t.Errorf("target = %s", out.Target)
	}
	if out.Rounds == 0 && !out.AcceptedCandidate {
		t.Errorf("expected at least one round or an acceptance")
	}
}

// TestNonCRRejected: a non-Church-Rosser specification is routed back
// as an error (the "No" branch of Fig. 3).
func TestNonCRRejected(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	all := append(paperdata.Rules(), paperdata.Phi12())
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), all...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &framework.GroundTruthOracle{Truth: paperdata.Target()}
	if _, err := framework.Run(g, framework.Config{}, oracle); err == nil {
		t.Errorf("non-CR specification should error")
	}
}

// TestAllAlgorithms: the loop converges with every candidate algorithm.
func TestAllAlgorithms(t *testing.T) {
	for _, algo := range []topk.Algorithm{
		topk.AlgoTopKCT, topk.AlgoRankJoinCT, topk.AlgoTopKCTh,
	} {
		g := grounding(t, "phi6b")
		oracle := &framework.GroundTruthOracle{Truth: paperdata.Target()}
		out, err := framework.Run(g, framework.Config{Pref: topk.Preference{K: 5}, Algo: algo}, oracle)
		if err != nil {
			t.Fatalf("algo %d: %v", algo, err)
		}
		if !out.Found || !out.Target.EqualTo(paperdata.Target()) {
			t.Errorf("algo %d: Found=%v target=%s", algo, out.Found, out.Target)
		}
	}
}

// TestStubbornOracle: an oracle that never accepts and never reveals
// terminates with Found=false.
func TestStubbornOracle(t *testing.T) {
	g := grounding(t, "phi6b")
	out, err := framework.Run(g, framework.Config{Pref: topk.Preference{K: 2}}, stubborn{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Found {
		t.Errorf("stubborn oracle should not find a target")
	}
	if len(out.Candidates) == 0 {
		t.Errorf("candidates should still be suggested")
	}
}

type stubborn struct{}

func (stubborn) Accept([]topk.Candidate) (int, bool) { return 0, false }
func (stubborn) Reveal(*model.Tuple, []string) (string, model.Value, bool) {
	return "", model.Value{}, false
}
