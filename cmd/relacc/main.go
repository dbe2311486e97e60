// Command relacc runs relative-accuracy deduction on CSV data:
//
//	relacc deduce -data instance.csv [-master master.csv] -rules rules.txt
//	relacc topk   -data instance.csv [-master master.csv] -rules rules.txt -k 10 [-algo topkct|rankjoin|topkcth] [-par N]
//	relacc check  -data instance.csv [-master master.csv] -rules rules.txt -candidate cand.csv
//	relacc rules  -rules rules.txt -data instance.csv [-master master.csv]
//	relacc batch  -data relation.csv [-master master.csv] -rules rules.txt [-by id | -key a,b] [-workers N] [-topk K] [-algo ...] [-o fused.csv]
//	relacc append -data base.csv -delta delta.csv [-master master.csv] -rules rules.txt -by id [-workers N] [-topk K] [-algo ...] [-o fused.csv]
//
// deduce/topk/check operate on the tuples of ONE entity; batch takes a
// whole relation of many entities, groups it into entity instances —
// by exact match on an identifier column (-by) or by similarity-based
// entity resolution on key attributes (-key) — and runs the deduce →
// top-k pipeline over all of them on a worker pool, printing one
// verdict per entity plus a summary. -o writes the settled targets
// (deduced complete, or filled from the best candidate) as CSV.
//
// batch reads the relation in one streaming pass: rows decode one at a
// time and the worker pool pulls entities as it frees up, so verdicts
// stream out while later rows are still being read. With -by, input
// whose rows arrive in contiguous per-key runs (sorted input does)
// groups one open entity at a time, in memory bounded by the worker
// pool whatever the relation's length; any other row order is grouped
// in full first, with identical output. -key resolves the whole
// relation by similarity before the first entity is deduced.
//
// append is the incremental face of batch: the base relation is
// deduced once, then the delta relation's tuples are routed by the -by
// identifier into the live per-entity sessions and only the touched
// entities are re-deduced — through delta instantiation, not a
// rebuild — printing one re-deduced verdict per touched entity. The
// delta CSV must carry the same columns as the base; -o writes the
// settled targets of the final state of every entity.
//
// The optional master CSV holds master data; the rule file uses the
// textual rule language (see internal/ruledsl):
//
//	phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds
//	phi6: master te[FN] = tm[FN] , tm[season] = "1994-95" -> te[league] = tm[league]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/topk"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dataPath := fs.String("data", "", "entity instance CSV (required)")
	masterPath := fs.String("master", "", "master relation CSV")
	rulesPath := fs.String("rules", "", "accuracy rule file (required)")
	k := fs.Int("k", 10, "number of candidate targets (topk)")
	algo := fs.String("algo", "topkct", "top-k algorithm: topkct, rankjoin or topkcth")
	par := fs.Int("par", -1, "concurrent candidate checks (1 = sequential, -1 = GOMAXPROCS)")
	candPath := fs.String("candidate", "", "candidate tuple CSV (check)")
	deltaPath := fs.String("delta", "", "append: delta relation CSV (same columns as -data)")
	by := fs.String("by", "", "batch/append: group entities by exact match on this column")
	key := fs.String("key", "", "batch: comma-separated key attributes for similarity-based grouping")
	threshold := fs.Float64("threshold", 0, "batch: similarity threshold for -key grouping (0 = 0.85)")
	workers := fs.Int("workers", 0, "batch: concurrent entities (0 = GOMAXPROCS)")
	topK := fs.Int("topk", 0, "batch: candidates per incomplete entity (0 = deduce only)")
	outPath := fs.String("o", "", "batch: write settled targets to this CSV")
	verbose := fs.Bool("v", false, "batch: print every entity (default: only unsettled ones)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "deduce", "topk", "check", "rules":
		// All flags parse on one shared FlagSet; reject the other
		// mode's flags loudly instead of silently ignoring them.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "by", "key", "threshold", "workers", "topk", "o", "v", "delta":
				fatal(fmt.Errorf("flag -%s applies to batch/append; %s uses -k and -par", f.Name, cmd))
			}
		})
	case "batch":
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k", "par", "candidate", "delta":
				fatal(fmt.Errorf("flag -%s does not apply to batch; batch uses -topk and -workers", f.Name))
			}
		})
		runBatch(batchArgs{
			data: *dataPath, master: *masterPath, rules: *rulesPath,
			by: *by, key: *key, threshold: *threshold,
			workers: *workers, topK: *topK, algo: *algo,
			out: *outPath, verbose: *verbose,
		})
		return
	case "append":
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k", "par", "candidate", "key", "threshold":
				fatal(fmt.Errorf("flag -%s does not apply to append; append routes deltas by -by", f.Name))
			}
		})
		runAppend(appendArgs{
			data: *dataPath, delta: *deltaPath, master: *masterPath, rules: *rulesPath,
			by: *by, workers: *workers, topK: *topK, algo: *algo,
			out: *outPath, verbose: *verbose,
		})
		return
	default:
		usage()
		os.Exit(2)
	}
	if *dataPath == "" || *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "relacc: -data and -rules are required")
		os.Exit(2)
	}

	sess, ie, rs, err := load(*dataPath, *masterPath, *rulesPath)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "rules":
		fmt.Printf("%d rules validated\n%s", rs.Len(), core.FormatRules(rs))
		return
	case "deduce":
		res := sess.Deduce()
		if !res.CR {
			fmt.Printf("specification is NOT Church-Rosser: %s\n", res.Conflict)
			os.Exit(1)
		}
		fmt.Println("specification is Church-Rosser")
		printTarget(ie.Schema(), res.Target)
	case "topk":
		a, err := topk.ParseAlgorithm(*algo)
		if err != nil {
			fatal(err)
		}
		res := sess.Deduce()
		if !res.CR {
			fatal(fmt.Errorf("specification is not Church-Rosser: %s", res.Conflict))
		}
		if res.Target.Complete() {
			fmt.Println("deduced target is already complete:")
			printTarget(ie.Schema(), res.Target)
			return
		}
		fmt.Println("deduced (incomplete) target:")
		printTarget(ie.Schema(), res.Target)
		cands, stats, err := sess.TopK(core.Preference{K: *k, Parallel: *par}, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("top-%d candidate targets (%d checks):\n", *k, stats.Checks)
		for i, c := range cands {
			fmt.Printf("%2d. score=%.1f %s\n", i+1, c.Score, c.Tuple)
		}
	case "check":
		if *candPath == "" {
			fatal(fmt.Errorf("-candidate is required for check"))
		}
		candSchema, tuples, err := csvio.ReadRelationFile(*candPath)
		if err != nil {
			fatal(err)
		}
		if len(tuples) != 1 {
			fatal(fmt.Errorf("candidate file must hold exactly one tuple, got %d", len(tuples)))
		}
		tuples, err = remapTuples(tuples, candSchema, ie.Schema())
		if err != nil {
			fatal(fmt.Errorf("candidate: %w", err))
		}
		if sess.Check(tuples[0]) {
			fmt.Println("candidate PASSES the chase check")
		} else {
			fmt.Println("candidate FAILS the chase check")
			os.Exit(1)
		}
	}
}

func load(dataPath, masterPath, rulesPath string) (*core.Session, *model.EntityInstance, *rule.Set, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	ie, err := csvio.ReadEntityInstance(f, "instance")
	if err != nil {
		return nil, nil, nil, err
	}
	im, rules, err := loadMasterAndRules(masterPath, rulesPath, ie.Schema())
	if err != nil {
		return nil, nil, nil, err
	}
	sess, err := core.NewSession(ie, im, rules)
	if err != nil {
		return nil, nil, nil, err
	}
	return sess, ie, rules, nil
}

// loadMasterAndRules loads the optional master CSV and parses the rule
// file against the given entity schema; shared by the single-entity
// modes and openRelation.
func loadMasterAndRules(masterPath, rulesPath string, entity *model.Schema) (*model.MasterRelation, *rule.Set, error) {
	var im *model.MasterRelation
	if masterPath != "" {
		mf, err := os.Open(masterPath)
		if err != nil {
			return nil, nil, err
		}
		defer mf.Close()
		im, err = csvio.ReadMaster(mf, "master")
		if err != nil {
			return nil, nil, err
		}
	}
	text, err := os.ReadFile(rulesPath)
	if err != nil {
		return nil, nil, err
	}
	var ms *model.Schema
	if im != nil {
		ms = im.Schema()
	}
	rules, err := core.ParseRules(string(text), entity, ms)
	if err != nil {
		return nil, nil, err
	}
	return im, rules, nil
}

type batchArgs struct {
	data, master, rules string
	by, key             string
	threshold           float64
	workers, topK       int
	algo                string
	out                 string
	verbose             bool
}

// openRelation opens the relation CSV for its single streaming pass and
// parses the master data and rules against the schema its header fixes.
func openRelation(data, master, rules string) (*os.File, *csvio.TupleIterator, *model.MasterRelation, *rule.Set) {
	f, err := os.Open(data)
	if err != nil {
		fatal(err)
	}
	it, err := csvio.NewTupleIterator(f, data)
	if err != nil {
		fatal(err)
	}
	im, rs, err := loadMasterAndRules(master, rules, it.Schema())
	if err != nil {
		fatal(err)
	}
	return f, it, im, rs
}

// inRuns reports whether the relation's rows arrive in contiguous runs
// per -by key (sorted input does): such input groups at window 1, one
// open entity at a time. The probe is one cheap sequential pass; a
// probe failure reports false, which picks the unbounded window —
// correct for any row order — and leaves the real error to the main
// pass.
func inRuns(data, by string) bool {
	f, err := os.Open(data)
	if err != nil {
		return false
	}
	defer f.Close()
	ok, err := ingest.RunLength(f, data, by)
	return err == nil && ok
}

// runBatch is the multi-entity pipeline front end: relation CSV in,
// per-entity verdicts and a summary out. Rows decode one at a time, a
// grouper turns them into entities, and the worker pool deduces each
// entity as it arrives, so verdicts (and -o rows) stream out while
// later rows are still being read. Only the grouper depends on the
// input: -by input in per-key runs groups at window 1, in memory
// bounded by the worker pool; other -by input groups in an unbounded
// window; -key resolves the whole relation by similarity first.
func runBatch(a batchArgs) {
	if a.data == "" || a.rules == "" {
		fmt.Fprintln(os.Stderr, "relacc: -data and -rules are required")
		os.Exit(2)
	}
	if (a.by == "") == (a.key == "") {
		fmt.Fprintln(os.Stderr, "relacc: batch needs exactly one of -by (identifier column) or -key (ER key attributes)")
		os.Exit(2)
	}
	alg, err := topk.ParseAlgorithm(a.algo)
	if err != nil {
		fatal(err)
	}
	f, it, im, rules := openRelation(a.data, a.master, a.rules)
	defer f.Close()
	schema := it.Schema()
	shared, err := chase.NewShared(schema, im, rules)
	if err != nil {
		fatal(err)
	}
	// One dictionary for the whole chain: values intern as they decode,
	// so grounding does no dict probes.
	it.Intern(shared.Dict())

	var src pipeline.EntitySource
	if a.by != "" {
		var window er.Window // unbounded: any row order
		how := "rows out of key order, unbounded window"
		if inRuns(a.data, a.by) {
			window.MaxEntities = 1
			how = "rows in per-key runs, window 1"
		}
		es, err := er.StreamGroupBy(it, schema, a.by, er.StreamOpts{Window: window})
		if err != nil {
			fatal(err)
		}
		src = es
		fmt.Printf("grouping %s by %s (%s)\n", a.data, a.by, how)
	} else {
		tuples, err := (&csvio.RelationReader{TupleIterator: it}).ReadAll()
		if err != nil {
			fatal(err)
		}
		entities, err := er.Resolve(tuples, schema, er.Config{
			KeyAttrs:  strings.Split(a.key, ","),
			Threshold: a.threshold,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d tuples grouped into %d entities\n", len(tuples), len(entities))
		slice := pipeline.SliceSource(entities)
		src = &slice
	}

	cfg := pipeline.Config{Workers: a.workers, TopK: a.topK, Algo: alg}
	var sum pipeline.Summary
	settled := 0
	run := func(rw *csvio.RelationWriter) error {
		var err error
		sum, err = pipeline.Stream(shared, src, cfg, func(r pipeline.Result) error {
			target := settledTarget(r)
			if target != nil {
				settled++
				if rw != nil {
					if err := rw.Write(target); err != nil {
						return err
					}
				}
			}
			if a.verbose || target == nil {
				printEntityLine(fmt.Sprintf("%d", r.Index), r, a.verbose)
			}
			return nil
		})
		return err
	}
	if a.out == "" {
		if err := run(nil); err != nil {
			fatal(err)
		}
	} else {
		// The whole run happens inside the atomic write: settled rows
		// stream straight into the temp file as their entities resolve,
		// and the rename publishes the complete output only after the
		// run ends cleanly.
		if err := atomicWrite(a.out, func(w io.Writer) error {
			rw, err := csvio.NewRelationWriter(w, schema)
			if err != nil {
				return err
			}
			if err := run(rw); err != nil {
				return err
			}
			return rw.Flush()
		}); err != nil {
			fatal(err)
		}
	}
	fmt.Println(sum.String())
	if a.out != "" {
		fmt.Printf("wrote %d settled targets (of %d entities) to %s\n", settled, sum.Entities, a.out)
	}
}

type appendArgs struct {
	data, delta, master, rules string
	by                         string
	workers, topK              int
	algo                       string
	out                        string
	verbose                    bool
}

// runAppend is the incremental pipeline front end: the base relation
// streams into live per-entity sessions keyed by the -by identifier,
// the delta relation's tuples are routed to them, and only the touched
// entities are re-deduced (through chase-level delta instantiation).
// The base may arrive in any row order: its entities stay resident in
// the live store, so grouping it in an unbounded window costs nothing
// a bounded one would save.
func runAppend(a appendArgs) {
	if a.data == "" || a.delta == "" || a.rules == "" {
		fmt.Fprintln(os.Stderr, "relacc: append needs -data, -delta and -rules")
		os.Exit(2)
	}
	if a.by == "" {
		fmt.Fprintln(os.Stderr, "relacc: append needs -by (the identifier column routing delta tuples)")
		os.Exit(2)
	}
	alg, err := topk.ParseAlgorithm(a.algo)
	if err != nil {
		fatal(err)
	}
	f, it, im, rules := openRelation(a.data, a.master, a.rules)
	defer f.Close()
	schema := it.Schema()
	u, err := pipeline.NewUpdater(schema, pipeline.Config{
		Master:  im,
		Rules:   rules,
		Workers: a.workers,
		TopK:    a.topK,
		Algo:    alg,
	})
	if err != nil {
		fatal(err)
	}
	baseSum, err := ingest.SeedUpdater(u, it, ingest.SeedOptions{
		By: a.by,
		Sink: func(r pipeline.Result) error {
			if a.verbose {
				printEntityLine(entityLabel(r, a.by), r, true)
			}
			return nil
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base: %d tuples grouped into %d entities\n", it.Row()-1, u.Len())
	fmt.Println("base:", baseSum.String())

	applyDelta(u, schema, a)

	if a.out != "" {
		// Snapshot re-deduces nothing that has not changed (deductions
		// are memoised per version); it is the final state of every
		// entity in registration order.
		_, results, _, err := u.Snapshot()
		if err != nil {
			fatal(err)
		}
		var settled []*model.Tuple
		for _, r := range results {
			if target := settledTarget(r); target != nil {
				settled = append(settled, target)
			}
		}
		writeSettled(a.out, schema, settled, len(results))
	}
}

// applyDelta runs append's delta phase: the delta CSV is read (deltas
// are the small side of an append), remapped onto the base schema,
// routed into the live entities by the -by key, and every touched
// entity's re-deduced verdict printed.
func applyDelta(u *pipeline.Updater, schema *model.Schema, a appendArgs) {
	deltaSchema, deltaTuples, err := csvio.ReadRelationFile(a.delta)
	if err != nil {
		fatal(err)
	}
	deltaTuples, err = remapTuples(deltaTuples, deltaSchema, schema)
	if err != nil {
		fatal(fmt.Errorf("delta: %w", err))
	}
	deltaUps, deltaLabels, err := groupUpdates(deltaTuples, schema, a.by)
	if err != nil {
		fatal(err)
	}
	newKeys := 0
	for _, up := range deltaUps {
		if u.Version(up.Key) < 0 {
			newKeys++
		}
	}
	deltaResults, deltaSum, err := u.Apply(deltaUps)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("delta: %d tuples touched %d entities (%d new); re-deduced targets:\n",
		len(deltaTuples), len(deltaUps), newKeys)
	for i, r := range deltaResults {
		printEntityLine(deltaLabels[i], r, a.verbose)
	}
	fmt.Println("delta:", deltaSum.String())
}

// entityLabel recovers the display label — what the -by column says —
// from a streamed result, matching the labels groupUpdates produces
// (Result.Key is the type-tagged routing key, not for humans).
func entityLabel(r pipeline.Result, by string) string {
	if r.Instance != nil {
		if ts := r.Instance.Tuples(); len(ts) > 0 {
			if v, ok := ts[0].Get(by); ok && !v.IsNull() {
				return v.String()
			}
		}
	}
	return r.Key
}

// settledTarget returns the target a result settles on: the complete
// deduced target, the best verified candidate, or nil when the entity
// stays unsettled. Both batch and append derive their -o output and
// verdict lines from it.
func settledTarget(r pipeline.Result) *model.Tuple {
	switch r.Status() {
	case "complete":
		return r.Deduction.Target
	case "candidates":
		return r.Candidates[0].Tuple
	}
	return nil
}

// writeSettled writes append's settled targets as CSV.
func writeSettled(path string, schema *model.Schema, settled []*model.Tuple, entities int) {
	if err := atomicWrite(path, func(w io.Writer) error {
		return csvio.WriteRelation(w, schema, settled)
	}); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d settled targets (of %d entities) to %s\n", len(settled), entities, path)
}

// atomicWrite writes path through a temp file in the same directory
// plus a rename, so a run that dies mid-write (a later fatal, a write
// error, a kill) never leaves a truncated or partial file where the
// caller asked for output — path either keeps its previous content or
// holds the complete new one.
func atomicWrite(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must get its temp file in the SAME directory:
		// CreateTemp("") would use os.TempDir, and renaming out of a
		// tmpfs /tmp fails cross-device.
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	// CreateTemp makes the file 0600; restore os.Create semantics so
	// the rename does not silently turn a shared output owner-only —
	// keep an existing destination's mode, else 0666 filtered by the
	// umask, exactly what os.Create would have produced.
	var mode os.FileMode
	if st, err := os.Stat(path); err == nil {
		mode = st.Mode().Perm()
	} else {
		mode = os.FileMode(0o666) &^ os.FileMode(processUmask())
	}
	if err := f.Chmod(mode); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// printEntityLine reports one entity's outcome under label (batch
// labels entities by index, append by their -by value); withTiming
// (verbose mode) appends the per-entity wall-clock time
// (pipeline.Result.Elapsed) so slow entities stand out inside an
// otherwise fast batch.
func printEntityLine(label string, r pipeline.Result, withTiming bool) {
	target := settledTarget(r)
	line := fmt.Sprintf("entity %-12s [%d tuples]  %-17s", label, r.Instance.Size(), r.Status())
	switch {
	case r.Err != nil:
		line += " " + r.Err.Error()
	case r.Status() == "not-church-rosser":
		line += " " + r.Deduction.Conflict
	case target != nil:
		line += " " + target.String()
	default:
		line += " " + r.Deduction.Target.String()
	}
	if withTiming {
		line += fmt.Sprintf("  (%s)", r.Elapsed.Round(time.Microsecond))
	}
	fmt.Println(line)
}

// groupUpdates routes a relation's tuples into keyed updates on the
// shared pipeline helper; append mode keys by the value's type-tagged
// identity (Value.Key), with the display label carrying what the
// column actually says.
func groupUpdates(tuples []*model.Tuple, schema *model.Schema, by string) ([]pipeline.Update, []string, error) {
	return pipeline.GroupUpdates(tuples, schema, by,
		func(v model.Value) (string, error) { return v.Key(), nil })
}

// remapTuples rebuilds tuples read under one schema object onto
// another by attribute name (schemas match by pointer identity
// everywhere else, and a second CSV — append's delta, check's
// candidate — necessarily parses into its own schema object). The
// column sets must agree; order may differ.
func remapTuples(tuples []*model.Tuple, from, to *model.Schema) ([]*model.Tuple, error) {
	for _, attr := range from.Attrs() {
		if to.Index(attr) < 0 {
			return nil, fmt.Errorf("column %q is not in the relation", attr)
		}
	}
	for _, attr := range to.Attrs() {
		if from.Index(attr) < 0 {
			return nil, fmt.Errorf("column %q is missing", attr)
		}
	}
	out := make([]*model.Tuple, len(tuples))
	for i, t := range tuples {
		nt := model.NewTuple(to)
		for a, attr := range from.Attrs() {
			nt.Set(attr, t.At(a))
		}
		out[i] = nt
	}
	return out, nil
}

func printTarget(schema *model.Schema, t *model.Tuple) {
	for a := 0; a < schema.Arity(); a++ {
		v := t.At(a)
		mark := " "
		if v.IsNull() {
			mark = "?"
		}
		fmt.Printf("  %s %-14s = %s\n", mark, schema.Attr(a), v)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: relacc <deduce|topk|check|rules|batch|append> -data data.csv -rules rules.txt [flags]
  deduce/topk/check/rules operate on one entity's tuples;
  batch groups a multi-entity relation (-by col | -key a,b) and runs the
  pipeline over it (-workers N -topk K -algo topkct|rankjoin|topkcth -o out.csv);
  append deduces a base relation, then routes -delta tuples to the live
  entities by -by and incrementally re-deduces only the touched ones;
  -by input sorted on its column streams in constant memory, any other
  row order gives the same output`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relacc:", err)
	os.Exit(1)
}
