package topk

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/model"
)

// Algorithm selects one of the top-k candidate searches of Section 6.
type Algorithm int

const (
	// AlgoTopKCT uses TopKCT (the default; Section 6.2).
	AlgoTopKCT Algorithm = iota
	// AlgoRankJoinCT uses RankJoinCT (Section 6.1).
	AlgoRankJoinCT
	// AlgoTopKCTh uses the heuristic TopKCTh (Section 6.3).
	AlgoTopKCTh
)

// ParseAlgorithm maps an algorithm's wire name — what the command-line
// flags and the relaccd query parameters carry — to its Algorithm
// value: "topkct", "rankjoin" or "topkcth".
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "topkct":
		return AlgoTopKCT, nil
	case "rankjoin":
		return AlgoRankJoinCT, nil
	case "topkcth":
		return AlgoTopKCTh, nil
	}
	return 0, fmt.Errorf("topk: unknown algorithm %q", name)
}

// Search runs the candidate search algo selects over the deduced
// target te of the Church-Rosser grounding g; an unknown algo runs
// TopKCT. It is the one dispatch every caller — the batch pipeline,
// core.Session and the interactive framework — goes through.
func Search(g *chase.Grounding, te *model.Tuple, pref Preference, algo Algorithm) ([]Candidate, Stats, error) {
	switch algo {
	case AlgoRankJoinCT:
		return RankJoinCT(g, te, pref)
	case AlgoTopKCTh:
		return TopKCTh(g, te, pref)
	default:
		return TopKCT(g, te, pref)
	}
}
