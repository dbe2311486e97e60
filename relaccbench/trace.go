package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/topk"
)

// span is one traced call: name, start and end relative to the trace's
// start, the span that caused it, and the operation (entity or request)
// it belongs to.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index into tracer.spans; -1 for a root
	op         int
}

// tracer records spans in memory on one goroutine; the traced runs are
// single-worker so that bytes allocated per call can be attributed. A
// nil *tracer records nothing, which is how the untraced passes run the
// same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// nextOp starts a new operation id for the spans that follow.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// selfTimes is each span name's summed self time: its duration minus
// the part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return self
}

// durations lists the full durations (ms) of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return out
}

// writeSpans saves the trace under dir as tab-separated lines: op,
// name, parent, start and end in microseconds. It returns the file.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.tsv")
	var b bytes.Buffer
	b.WriteString("op\tname\tparent\tstart_us\tend_us\n")
	for _, s := range t.spans {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\n", s.op, s.name, s.parent, s.start.Microseconds(), s.end.Microseconds())
	}
	return path, os.WriteFile(path, b.Bytes(), 0o644)
}

// saveSpans writes the run's spans and notes where they went.
func saveSpans(c *runCtx, res *result, tr *tracer, workload string) error {
	path, err := tr.writeSpans(c.traces, fmt.Sprintf("%s-seed%d", workload, c.seed))
	if err != nil {
		return err
	}
	res.notef("spans written to %s", path)
	return nil
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerCounts are the counters a traced pass collects beside its spans.
type layerCounts struct {
	rows, entities, dictValues       int
	groundCalls, groundSteps         int
	groundAllocBytes                 uint64
	groundBusy                       time.Duration // serve: the Updater's own per-entity clock
	extendCalls, runCalls            int
	extendBusy, runBusy              time.Duration // serve: the Updater's own per-entity clock
	topkCalls, topkChecks, topkCands int
	topkBusy                         time.Duration // serve: the Updater's own per-entity clock
	budgetHits                       int
	vHits, vMisses                   int64
	settledHits, settledMisses       int64
	walAppends, walTuples            int
	walBytes                         int64
	sharedTime                       time.Duration
	entityMs                         []float64
}

// tracedSource wraps the CSV iterator the grouper pulls from, so each
// TupleIterator.Next is a csvio span nested under the er span.
type tracedSource struct {
	it   *csvio.TupleIterator
	tr   *tracer
	rows *int
}

func (s tracedSource) Next() (*model.Tuple, error) {
	id := s.tr.begin("csvio.next")
	t, err := s.it.Next()
	s.tr.end(id)
	if err == nil {
		*s.rows++
	}
	return t, err
}

// batchPass is relacc batch's streaming path (readHeaderSchema,
// loadMasterAndRules, ingest.StreamCSV, the pipeline's per-entity
// kernel, the -o writer) on one worker, calling the same public
// functions in the same order, with a span around each call when tr is
// non-nil. It returns the outputs' digest and the wall time.
func batchPass(tr *tracer, s batchSpec, f *batchFiles) (string, time.Duration, *layerCounts, error) {
	start := time.Now()
	lc := &layerCounts{}
	id := tr.begin("csvio.header")
	header, err := os.Open(f.data)
	if err != nil {
		return "", 0, nil, err
	}
	hit, err := csvio.NewTupleIterator(header, f.data)
	header.Close()
	tr.end(id)
	if err != nil {
		return "", 0, nil, err
	}
	schema := hit.Schema()
	var im *model.MasterRelation
	if f.master != "" {
		id = tr.begin("csvio.master")
		mf, err := os.Open(f.master)
		if err != nil {
			return "", 0, nil, err
		}
		im, err = csvio.ReadMaster(mf, "master")
		mf.Close()
		tr.end(id)
		if err != nil {
			return "", 0, nil, err
		}
	}
	id = tr.begin("rules.parse")
	text, err := os.ReadFile(f.rules)
	if err != nil {
		return "", 0, nil, err
	}
	var ms *model.Schema
	if im != nil {
		ms = im.Schema()
	}
	rules, err := core.ParseRules(string(text), schema, ms)
	tr.end(id)
	if err != nil {
		return "", 0, nil, err
	}

	var out bytes.Buffer
	rw, err := csvio.NewRelationWriter(&out, schema)
	if err != nil {
		return "", 0, nil, err
	}
	data, err := os.Open(f.data)
	if err != nil {
		return "", 0, nil, err
	}
	defer data.Close()
	id = tr.begin("csvio.header")
	it, err := csvio.NewTupleIterator(data, f.data)
	tr.end(id)
	if err != nil {
		return "", 0, nil, err
	}
	id = tr.begin("chase.shared")
	sharedStart := time.Now()
	shared, err := chase.NewShared(it.Schema(), im, rules)
	lc.sharedTime = time.Since(sharedStart)
	tr.end(id)
	if err != nil {
		return "", 0, nil, err
	}
	it.Intern(shared.Dict())
	es, err := er.StreamGroupBy(tracedSource{it: it, tr: tr, rows: &lc.rows}, it.Schema(), s.by,
		er.StreamOpts{Window: er.Window{MaxEntities: 1024}})
	if err != nil {
		return "", 0, nil, err
	}
	var sum pipeline.Summary
	for {
		tr.nextOp()
		id = tr.begin("er.next")
		ie, err := es.Next()
		tr.end(id)
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", 0, nil, err
		}
		lc.entities++
		r := entityKernel(tr, shared, ie, s.topK, lc)
		addSummary(&sum, &r, schema.Arity())
		if t := settledOf(&r); t != nil {
			id = tr.begin("csvio.write")
			err = rw.Write(t)
			tr.end(id)
			if err != nil {
				return "", 0, nil, err
			}
		}
	}
	if err := rw.Flush(); err != nil {
		return "", 0, nil, err
	}
	lc.dictValues = shared.Dict().Size()
	summary := normalizeSummary(sum.String())
	return batchDigest(out.Bytes(), summary), time.Since(start), lc, nil
}

// entityKernel is the pipeline's per-entity work for a batch entity:
// ground, deduce, and search candidates when the target is incomplete.
func entityKernel(tr *tracer, shared *chase.Shared, ie *model.EntityInstance, k int, lc *layerCounts) pipeline.Result {
	entityStart := time.Now()
	root := tr.begin("pipeline.entity")
	out := pipeline.Result{Index: lc.entities - 1, Instance: ie}
	var before uint64
	if tr != nil {
		before = heapAllocs()
	}
	id := tr.begin("chase.ground")
	g, err := shared.NewGrounding(ie, chase.Options{})
	tr.end(id)
	if tr != nil {
		lc.groundAllocBytes += heapAllocs() - before
	}
	lc.groundCalls++
	if err != nil {
		out.Err = err
	} else {
		lc.groundSteps += g.GroundSteps()
		out.Version = g.Version()
		id = tr.begin("chase.run")
		out.Deduction = g.Run(nil)
		tr.end(id)
		lc.runCalls++
		if out.Deduction.CR && !out.Deduction.Target.Complete() && k > 0 {
			id = tr.begin("topk")
			out.Candidates, out.Stats, err = topk.TopKCT(g, out.Deduction.Target, topk.Preference{K: k})
			tr.end(id)
			lc.topkCalls++
			lc.topkChecks += out.Stats.Checks
			lc.topkCands += len(out.Candidates)
			if err != nil {
				out.Err = err
			}
		}
		vs := g.VerdictCacheStats()
		lc.vHits += vs.Hits
		lc.vMisses += vs.Misses
	}
	tr.end(root)
	out.Elapsed = time.Since(entityStart)
	lc.entityMs = append(lc.entityMs, float64(out.Elapsed)/float64(time.Millisecond))
	return out
}

// settledOf is the target relacc batch -o writes for a result: the
// deduced target when complete, else the best candidate.
func settledOf(r *pipeline.Result) *model.Tuple {
	switch r.Status() {
	case "complete":
		return r.Deduction.Target
	case "candidates":
		return r.Candidates[0].Tuple
	}
	return nil
}

// addSummary counts a result into a batch summary the way the pipeline
// does.
func addSummary(s *pipeline.Summary, r *pipeline.Result, arity int) {
	s.Entities++
	switch {
	case r.Err != nil:
		s.Errors++
		return
	case !r.Deduction.CR:
		s.NotCR++
		return
	}
	s.AttrsTotal += arity
	s.AttrsDeduced += arity - len(r.Deduction.Target.NullAttrs())
	s.Checks += r.Stats.Checks
	switch {
	case r.Deduction.Target.Complete():
		s.Complete++
	case len(r.Candidates) > 0:
		s.WithCandidates++
	default:
		s.Incomplete++
	}
}

// normalizeSummary drops the elapsed time from a summary line.
func normalizeSummary(line string) string {
	m := summaryRE.FindStringSubmatch(line)
	if m == nil {
		return line
	}
	return m[1] + " entities: " + m[2]
}

// traceBatch is a batch workload's traced run: one relacc batch on
// refWorkers workers, then the same work in-process on one worker,
// untraced and traced. All three must produce the same outputs
// (DESIGN.md invariant 2: results do not depend on the worker count).
func traceBatch(c *runCtx, s batchSpec, f *batchFiles, res *result) (*result, error) {
	ref := s
	ref.workers = refWorkers
	cli, err := runCLI(c, ref, f, f.data, f.data+".settled.csv")
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = cli.entities, cli.errors
	checkGolden(c, res, s.name, 0, cli.digest)

	runtime.GC()
	plainDigest, plainWall, _, err := batchPass(nil, s, f)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer()
	tracedDigest, wall, lc, err := batchPass(tr, s, f)
	if err != nil {
		return nil, err
	}
	for _, d := range []struct{ name, digest string }{{"untraced 1-worker pass", plainDigest}, {"traced 1-worker pass", tracedDigest}} {
		if d.digest != cli.digest {
			res.correct = false
			res.notef("MISMATCH: %s digest %s, relacc batch -workers %d digest %s", d.name, d.digest, refWorkers, cli.digest)
		}
	}
	if res.correct {
		res.notef("relacc batch -workers %d, untraced and traced 1-worker passes agree (%s)", refWorkers, cli.digest)
	}
	if err := saveSpans(c, res, tr, s.name); err != nil {
		return nil, err
	}
	layerMetrics(res, tr, lc, wall, plainWall)
	for _, name := range serveOnlyLayers {
		res.set(name, 0, 0, "not exercised by a batch workload")
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics common to every workload
// from a traced pass.
func layerMetrics(res *result, tr *tracer, lc *layerCounts, wall, plainWall time.Duration) {
	self := tr.selfTimes()
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds()
	}
	var covered time.Duration
	for name, d := range self {
		if !strings.HasPrefix(name, "op.") {
			covered += d
		}
	}
	res.set("csvio.rows", float64(lc.rows), 1, "")
	res.set("csvio.busy_s", sec("csvio.next", "csvio.header", "csvio.master", "csvio.write"), len(tr.durations("csvio.next")), "self time")
	res.set("er.entities", float64(lc.entities), 1, "")
	res.set("er.busy_s", sec("er.next"), len(tr.durations("er.next")), "self time of EntityStream.Next")
	res.set("model.dict_values", float64(lc.dictValues), 1, "Dict size at the end")
	res.set("chase.shared_s", lc.sharedTime.Seconds(), 1, "NewShared")
	groundBusy := sec("chase.ground")
	res.set("chase.ground.calls", float64(lc.groundCalls), 1, "")
	res.set("chase.ground.busy_s", groundBusy+lc.groundBusy.Seconds(), lc.groundCalls, "")
	res.set("chase.ground.alloc_mb", ratio(float64(lc.groundAllocBytes), float64(lc.groundCalls))/(1<<20), lc.groundCalls, "heap bytes per call")
	res.set("chase.ground.steps", float64(lc.groundSteps), lc.groundCalls, "Σ GroundSteps")
	res.set("chase.run.calls", float64(lc.runCalls), 1, "")
	res.set("chase.run.busy_s", sec("chase.run")+lc.runBusy.Seconds(), lc.runCalls, "")
	res.set("topk.calls", float64(lc.topkCalls), 1, "")
	res.set("topk.busy_s", sec("topk")+lc.topkBusy.Seconds(), lc.topkCalls, "")
	res.set("topk.checks", float64(lc.topkChecks), lc.topkCalls, "")
	res.set("topk.yield", ratio(float64(lc.topkCands), float64(lc.topkChecks)), lc.topkChecks, "candidates ÷ checks")
	res.set("topk.budget_hits", float64(lc.budgetHits), lc.topkCalls, "searches that spent MaxChecks")
	res.set("vcache.hits", float64(lc.vHits), 1, "")
	res.set("vcache.misses", float64(lc.vMisses), 1, "")
	res.set("vcache.hit_ratio", ratio(float64(lc.vHits), float64(lc.vHits+lc.vMisses)), int(lc.vHits+lc.vMisses), "hits ÷ (hits + misses)")
	var busy float64
	for _, ms := range lc.entityMs {
		busy += ms / 1000
	}
	res.set("pipeline.worker_busy_ratio", ratio(busy, wall.Seconds()), len(lc.entityMs), "Σ per-entity time ÷ (wall × 1 worker)")
	if p, err := percentileOf(lc.entityMs, 99); err == nil {
		res.set("pipeline.entity_p99_ms", p.Value, p.N, "")
	} else {
		res.set("pipeline.entity_p99_ms", maxOf(lc.entityMs), len(lc.entityMs), "maximum: "+err.Error())
	}
	res.set("trace.coverage", ratio(covered.Seconds(), wall.Seconds()), len(tr.spans), "Σ layer self time ÷ traced wall")
	res.set("trace.overhead", ratio(wall.Seconds(), plainWall.Seconds())-1, 2, "traced wall ÷ untraced wall − 1")
	res.notef("traced wall %.3fs, untraced wall %.3fs, %d spans", wall.Seconds(), plainWall.Seconds(), len(tr.spans))
	names := sortedKeys(self)
	for _, n := range names {
		res.notef("self %-16s %9.4fs  %5.1f%% of wall", n, self[n].Seconds(), 100*ratio(self[n].Seconds(), wall.Seconds()))
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
