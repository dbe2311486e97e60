// The one candidate-check driver of the top-k algorithms.
//
// All three top-k algorithms share one structural property: the
// sequence of candidates they check is independent of the check
// *outcomes* — a verdict only decides whether a candidate is emitted
// and when the search stops (the k-th pass, or the MaxChecks budget).
// Enumeration (heap pops, queue expansion, rank-join advancement) is
// driven purely by scores. Each algorithm is therefore an enumerator of
// a deterministic "check stream", and a search is that stream cut at
// the k-th passing candidate.
//
// runStream is the only place a candidate is checked. It produces the
// stream in waves, verifies each wave on pooled chase engines, and
// replays the verdicts in stream order to find the stopping point.
// Preference.Parallel sets only the wave width: at one worker every
// wave holds exactly one event, which is the sequential run itself;
// wider waves verify concurrently and discard the checks speculated
// beyond the stopping point, so the returned passes, check count and
// enumeration-counter snapshot are the same at every width.
package topk

import (
	"runtime"

	"repro/internal/chase"
	"repro/internal/model"
)

// parallelism resolves Preference.Parallel to a worker count.
func (p *problem) parallelism() int {
	switch {
	case p.pref.Parallel < 0:
		return runtime.GOMAXPROCS(0)
	case p.pref.Parallel == 0:
		return 1
	default:
		return p.pref.Parallel
	}
}

// checkEvent is one candidate of the deterministic check stream,
// carrying the cumulative enumeration counters observed right after the
// event was produced (the values Stats would hold had the search
// stopped right after checking it).
type checkEvent struct {
	t         *model.Tuple
	score     float64
	pops      int
	generated int
}

// streamOutcome is what a one-at-a-time check of the stream observes.
type streamOutcome struct {
	passes []checkEvent // passing events in stream order, cut at needed
	checks int          // checks a one-at-a-time run spends
	// cut reports that the needed-th pass was reached mid-stream. Only
	// then must the caller rewind its enumeration counters to (pops,
	// generated) — the snapshot at the cut event — to discard
	// speculative enumeration; otherwise the live counters already
	// reflect the full stream, exactly as a one-at-a-time run leaves them.
	cut       bool
	pops      int
	generated int
	err       error // enumeration error (e.g. ErrBudget), nil if cut first
}

// runStream drives the check stream produced by next with par
// concurrent workers borrowing engines from pool. At most budget
// events are checked (<= 0 = unlimited — the stream's own end bounds
// it), and the stream is cut immediately after the event yielding the
// needed-th pass (needed >= 1). next returns ok=false at stream end
// and may return an enumeration error, which is reported only when the
// cut was not reached first — exactly when a one-at-a-time run hits
// it.
func runStream(pool *chase.CheckerPool, par, budget, needed int, base checkEvent, next func() (checkEvent, bool, error)) streamOutcome {
	out := streamOutcome{pops: base.pops, generated: base.generated}
	// Waves start at one event per worker and double up to 4·par: short
	// streams (a repair probe whose first value usually passes) waste at
	// most par-1 speculative checks, while long streams amortise wave
	// dispatch over bigger batches. One worker never speculates.
	waveCap := 4 * par
	if par == 1 {
		waveCap = 1
	}
	wave := par
	events := make([]checkEvent, 0, waveCap)
	verdicts := make([]bool, waveCap)
	last := base
	produced := 0
	var streamErr error
	ended := false
	for !ended {
		events = events[:0]
		for len(events) < wave {
			if budget > 0 && produced >= budget {
				ended = true
				break
			}
			ev, ok, err := next()
			if err != nil {
				streamErr = err
				ended = true
				break
			}
			if !ok {
				ended = true
				break
			}
			events = append(events, ev)
			produced++
		}
		if len(events) == 0 {
			break
		}
		if wave *= 2; wave > waveCap {
			wave = waveCap
		}
		checkWave(pool, par, events, verdicts[:len(events)])
		for i, ev := range events {
			out.checks++
			last = ev
			if verdicts[i] {
				out.passes = append(out.passes, ev)
				if len(out.passes) == needed {
					// A one-at-a-time run stops here: discard everything
					// speculated beyond this event, including any
					// enumeration error produced while speculating.
					out.cut = true
					out.pops, out.generated = ev.pops, ev.generated
					return out
				}
			}
		}
	}
	out.pops, out.generated = last.pops, last.generated
	out.err = streamErr
	return out
}

// checkWave verifies events concurrently, writing verdicts aligned with
// events.
func checkWave(pool *chase.CheckerPool, par int, events []checkEvent, verdicts []bool) {
	pool.CheckMany(par, len(events),
		func(i int) *model.Tuple { return events[i].t },
		func(i int, ok bool) { verdicts[i] = ok })
}

// search checks the stream next through runStream at p.parallelism()
// workers and returns its first k passing candidates in stream order.
// It owns the MaxChecks budget and the Stats a search reports: the
// checks spent, and the enumeration counters rewound to the k-th pass
// when speculation enumerated beyond it. A stream error (RankJoinCT's
// ErrBudget) is returned with the candidates found before it.
func (p *problem) search(k int, next func() (checkEvent, bool, error)) ([]Candidate, error) {
	oc := runStream(p.pool, p.parallelism(), p.pref.MaxChecks, k,
		checkEvent{pops: p.stats.Pops, generated: p.stats.Generated}, next)
	p.stats.Checks += oc.checks
	if oc.cut {
		p.stats.Pops, p.stats.Generated = oc.pops, oc.generated
	}
	var out []Candidate
	for _, ev := range oc.passes {
		out = append(out, Candidate{Tuple: ev.t, Score: ev.score})
	}
	return out, oc.err
}

// single is the one-event stream of a complete target: te is its own
// single candidate.
func (p *problem) single() func() (checkEvent, bool, error) {
	done := false
	return func() (checkEvent, bool, error) {
		if done {
			return checkEvent{}, false, nil
		}
		done = true
		return checkEvent{t: p.te.Clone(), score: p.baseScore()}, true, nil
	}
}

// remainingBudget reports whether MaxChecks leaves any check to spend
// given the checks already spent.
func (p *problem) remainingBudget() bool {
	return p.pref.MaxChecks <= 0 || p.stats.Checks < p.pref.MaxChecks
}
