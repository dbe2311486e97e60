package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/chase"
	"repro/internal/csvio"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/ruledsl"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/wal"
)

// relaccdMaxChecks is relaccd's default -max-checks, the candidate
// search budget the replay configures like the daemon does.
const relaccdMaxChecks = 100_000

// timedPersister is the durable store under the replayed Updater, with
// a wal span around every LogApply once the measured ops begin.
type timedPersister struct {
	st *wal.Store
	tr *tracer
	lc *layerCounts
	on bool
}

func (p *timedPersister) LogApply(updates []pipeline.Update) (uint64, error) {
	if !p.on {
		return p.st.LogApply(updates)
	}
	id := p.tr.begin("wal")
	seq, err := p.st.LogApply(updates)
	p.tr.end(id)
	p.lc.walAppends++
	return seq, err
}

// serveReplay replays serve_mix's op sequence in-process, in schedule
// order on one worker, through the functions relaccd's handlers call:
// decode the JSON body, Updater.Apply over a wal.Store (fsync always),
// Updater.Query, encode the reply. It returns the final state's digest,
// the ops' wall time and each op's duration.
func serveReplay(tr *tracer, in *serveInput, files *batchFiles, dir string) (string, time.Duration, []time.Duration, *layerCounts, error) {
	lc := &layerCounts{}
	fail := func(err error) (string, time.Duration, []time.Duration, *layerCounts, error) {
		return "", 0, nil, nil, err
	}
	data, err := os.Open(files.data)
	if err != nil {
		return fail(err)
	}
	defer data.Close()
	it, err := csvio.NewTupleIterator(data, files.data)
	if err != nil {
		return fail(err)
	}
	schema := it.Schema()
	mf, err := os.Open(files.master)
	if err != nil {
		return fail(err)
	}
	im, err := csvio.ReadMaster(mf, "master")
	mf.Close()
	if err != nil {
		return fail(err)
	}
	parsed, err := ruledsl.Parse(string(in.batch.rules))
	if err != nil {
		return fail(err)
	}
	rules, err := rule.NewSet(schema, im.Schema(), parsed...)
	if err != nil {
		return fail(err)
	}
	sharedStart := time.Now()
	u, err := pipeline.NewUpdater(schema, pipeline.Config{
		Master: im, Rules: rules, Workers: 1,
		Pref: topk.Preference{MaxChecks: relaccdMaxChecks},
	})
	lc.sharedTime = time.Since(sharedStart)
	if err != nil {
		return fail(err)
	}
	store, err := wal.Open(dir, schema, wal.Options{Fsync: wal.SyncAlways})
	if err != nil {
		return fail(err)
	}
	defer store.Close()
	if _, err := store.Recover(u); err != nil {
		return fail(err)
	}
	p := &timedPersister{st: store, tr: tr, lc: lc}
	u.AttachPersister(p)
	if _, err := ingest.SeedUpdater(u, it, ingest.SeedOptions{
		By: "name",
		KeyOf: func(v model.Value) (string, error) {
			k := v.String()
			return k, server.ValidateKey(k)
		},
	}); err != nil {
		return fail(err)
	}
	cs0 := u.CacheStats()
	wal0 := store.Stats().WALBytes
	p.on = true

	perOp := make([]time.Duration, len(in.ops))
	last := map[string]*chase.Result{} // last answer per key, to tell memo hits
	start := time.Now()
	for i := range in.ops {
		o := &in.ops[i]
		tr.nextOp()
		opStart := time.Now()
		root := tr.begin("op." + o.Kind.String())
		var r pipeline.Result
		var reply map[string]any
		switch o.Kind {
		case opAppend:
			id := tr.begin("server.json")
			tuples, err := decodeEvidence(o.Body, schema)
			tr.end(id)
			if err != nil {
				return fail(err)
			}
			var before uint64
			if tr != nil {
				before = heapAllocs()
			}
			id = tr.begin("pipeline.apply")
			results, _, err := u.Apply([]pipeline.Update{{Key: o.Key, Tuples: tuples}})
			tr.end(id)
			if err != nil {
				return fail(err)
			}
			r = results[0]
			if r.Err != nil {
				return fail(fmt.Errorf("append %d to %s: %w", i, o.Key, r.Err))
			}
			if r.Version > 0 {
				lc.extendCalls++
				lc.extendBusy += r.Elapsed
			} else {
				lc.groundCalls++
				lc.groundBusy += r.Elapsed
				if tr != nil {
					lc.groundAllocBytes += heapAllocs() - before // the whole creating Apply
				}
			}
			lc.walTuples += len(tuples)
			reply = entityReply(&r)
			reply["absorbed"] = len(tuples)
		default:
			k := o.K // 0 for an entity read: deduce only
			id := tr.begin("pipeline.query")
			var ok bool
			r, ok = u.Query(o.Key, k, pipeline.AlgoTopKCT)
			tr.end(id)
			if !ok {
				return fail(fmt.Errorf("op %d: unknown entity %q", i, o.Key))
			}
			if last[o.Key] != r.Deduction { // a memo miss ran the kernel
				lc.runCalls++
				if k > 0 && r.Deduction.CR && !r.Deduction.Target.Complete() {
					lc.topkCalls++
					lc.topkBusy += r.Elapsed
					lc.topkChecks += r.Stats.Checks
					lc.topkCands += len(r.Candidates)
					if r.Stats.Checks >= relaccdMaxChecks {
						lc.budgetHits++
					}
				} else {
					lc.runBusy += r.Elapsed
				}
			}
			reply = entityReply(&r)
			if o.Kind == opTopK {
				cands := make([]map[string]any, 0, len(r.Candidates))
				for _, c := range r.Candidates {
					cands = append(cands, map[string]any{"score": c.Score, "tuple": tupleReply(c.Tuple)})
				}
				reply["k"] = k
				reply["candidates"] = cands
				reply["stats"] = map[string]any{"checks": r.Stats.Checks, "pops": r.Stats.Pops, "generated": r.Stats.Generated}
			}
		}
		last[o.Key] = r.Deduction
		lc.entityMs = append(lc.entityMs, float64(r.Elapsed)/float64(time.Millisecond))
		id := tr.begin("server.json")
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		err := enc.Encode(reply)
		tr.end(id)
		if err != nil {
			return fail(err)
		}
		tr.end(root)
		perOp[i] = time.Since(opStart)
	}
	wall := time.Since(start)
	p.on = false

	cs := u.CacheStats()
	lc.settledHits = cs.SettledHits - cs0.SettledHits
	lc.settledMisses = cs.SettledMisses - cs0.SettledMisses
	lc.vHits = cs.VerdictHits - cs0.VerdictHits
	lc.vMisses = cs.VerdictMisses - cs0.VerdictMisses
	lc.walBytes = store.Stats().WALBytes - wal0
	lc.dictValues = u.Dict().Size()
	final := make(map[string]string, u.Len())
	for _, key := range u.Keys() {
		r, _ := u.Query(key, 0, pipeline.AlgoTopKCT)
		final[key] = answerJSON(key, &r)
	}
	return stateDigest(final), wall, perOp, lc, nil
}

// decodeEvidence is the evidence route's body decoding: JSON objects
// keyed by attribute name, numbers parsed as the CSV reader would.
func decodeEvidence(body []byte, schema *model.Schema) ([]*model.Tuple, error) {
	var req struct {
		Tuples []map[string]any `json:"tuples"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	out := make([]*model.Tuple, 0, len(req.Tuples))
	for _, row := range req.Tuples {
		t := model.NewTuple(schema)
		for attr, raw := range row {
			var v model.Value
			switch x := raw.(type) {
			case nil:
				v = model.NullValue()
			case string:
				v = model.S(x)
			case bool:
				v = model.B(x)
			case json.Number:
				v = model.Parse(string(x))
			default:
				return nil, fmt.Errorf("unsupported JSON value %v", raw)
			}
			if !t.Set(attr, v) {
				return nil, fmt.Errorf("attribute %q is not in the schema", attr)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// traceServe is serve_mix's traced run: after the HTTP leg (whose
// route latencies it reports), the op sequence replays in-process
// untraced and traced; both final states must equal the daemon's.
func traceServe(c *runCtx, in *serveInput, files *batchFiles, leg *httpLeg, res *result) (*result, error) {
	runtime.GC()
	plainDigest, plainWall, _, _, err := serveReplay(nil, in, files, c.work+"/replay-plain")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer()
	tracedDigest, wall, perOp, lc, err := serveReplay(tr, in, files, c.work+"/replay-traced")
	if err != nil {
		return nil, err
	}
	for _, d := range []struct{ name, digest string }{{"untraced replay", plainDigest}, {"traced replay", tracedDigest}} {
		if d.digest != leg.digest {
			res.correct = false
			res.notef("MISMATCH: %s final state %s, daemon %s", d.name, d.digest, leg.digest)
		}
	}
	if err := saveSpans(c, res, tr, "serve_mix"); err != nil {
		return nil, err
	}
	layerMetrics(res, tr, lc, wall, plainWall)
	for _, name := range batchOnlyLayers {
		res.set(name, 0, 0, "the daemon's seed is set-up, outside the replayed ops")
	}
	self := tr.selfTimes()
	res.set("chase.extend.calls", float64(lc.extendCalls), 1, "")
	res.set("chase.extend.busy_s", lc.extendBusy.Seconds(), lc.extendCalls, "Updater clock: Extend + re-deduce")
	res.set("pipeline.settled.hits", float64(lc.settledHits), 1, "")
	res.set("pipeline.settled.misses", float64(lc.settledMisses), 1, "")
	res.set("pipeline.settled.hit_ratio", ratio(float64(lc.settledHits), float64(lc.settledHits+lc.settledMisses)),
		int(lc.settledHits+lc.settledMisses), "hits ÷ (hits + misses)")
	res.set("pipeline.apply.busy_s", self["pipeline.apply"].Seconds(), len(tr.durations("pipeline.apply")), "self time, WAL excluded")
	res.set("pipeline.query.busy_s", self["pipeline.query"].Seconds(), len(tr.durations("pipeline.query")), "self time")
	res.set("wal.appends", float64(lc.walAppends), 1, "")
	res.set("wal.busy_s", self["wal"].Seconds(), lc.walAppends, "LogApply, fsync always")
	res.set("wal.bytes_per_tuple", ratio(float64(lc.walBytes), float64(lc.walTuples)), lc.walTuples, "")
	res.set("server.json_s", self["server.json"].Seconds(), len(tr.durations("server.json")), "body decode + reply encode")
	var httpSum, layerSum time.Duration
	for i, s := range leg.samples {
		if s.ok() {
			httpSum += s.done.Sub(s.sent)
			layerSum += perOp[i]
		}
	}
	res.set("server.http_s", (httpSum - layerSum).Seconds(), len(leg.samples), "Σ client latency from send − Σ in-process op time")
	return res, nil
}
