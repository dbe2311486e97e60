package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// serveSetupReps is how many daemons a serve_mix run boots; set-up time
// is the median, and the last daemon serves the load.
const serveSetupReps = 3

// daemon is one running relaccd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	dataDir string
	stderr  bytes.Buffer
	exited  chan struct{}
}

// addrWriter receives relaccd's standard output and hands over the
// address from its "serving ... on http://ADDR" line, once.
type addrWriter struct {
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if j := strings.Index(line, " on http://"); j >= 0 && strings.HasPrefix(line, "relaccd: serving") {
			w.addr <- line[j+len(" on "):]
			w.sent, w.buf = true, nil
			return len(p), nil
		}
	}
}

// startDaemon boots relaccd on a fresh durable store and returns once
// GET /healthz answers 200, with the time that took.
func startDaemon(c *runCtx, files *batchFiles, dataDir string) (*daemon, time.Duration, error) {
	args := []string{"-data", files.data, "-master", files.master, "-rules", files.rules,
		"-by", "name", "-addr", "127.0.0.1:0", "-fsync", "always", "-data-dir", dataDir}
	d := &daemon{dataDir: dataDir, exited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(c.bin, "relaccd"), args...)
	addr := &addrWriter{addr: make(chan string, 1)}
	d.cmd.Stdout, d.cmd.Stderr = addr, &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		close(d.exited)
	}()
	select {
	case d.base = <-addr.addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("relaccd exited before serving: %s", d.stderr.String())
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("relaccd did not start serving within 120s")
	}
	probe := &http.Client{Timeout: 10 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 120*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("relaccd /healthz never answered 200: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("relaccd did not exit within 60s of SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("relaccd exited with %v: %s", d.cmd.ProcessState, d.stderr.String())
	}
	return nil
}

// kill ends the daemon without ceremony, for error paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
}

// getJSON decodes a GET reply, keeping numbers exact.
func getJSON(client *http.Client, u string, into any) error {
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, body)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	return dec.Decode(into)
}

// cacheCounters are the /v1/stats read-path cache counters.
type cacheCounters struct {
	SettledHits   int64 `json:"settled_hits"`
	SettledMisses int64 `json:"settled_misses"`
	VerdictHits   int64 `json:"verdict_hits"`
	VerdictMisses int64 `json:"verdict_misses"`
}

// httpLeg is what serve_mix's HTTP run measured.
type httpLeg struct {
	setup   []float64
	samples []sample
	wall    float64 // seconds from the first scheduled send to the last reply
	rssMiB  float64
	before  cacheCounters
	after   cacheCounters
	final   map[string]string // key -> canonical GET answer
	digest  string
	fs      string
}

// runHTTPLeg boots the daemons, runs the open-loop schedule against the
// last one, reads back every entity and shuts it down.
func runHTTPLeg(c *runCtx, in *serveInput, files *batchFiles, reps int) (*httpLeg, error) {
	leg := &httpLeg{}
	var d *daemon
	for i := 0; i < reps; i++ {
		dir := filepath.Join(c.work, fmt.Sprintf("store%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		nd, took, err := startDaemon(c, files, dir)
		if err != nil {
			return nil, err
		}
		leg.setup = append(leg.setup, took.Seconds())
		if i < reps-1 {
			if err := nd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = nd
	}
	leg.fs = fsName(d.dataDir)
	ok := false
	defer func() {
		if !ok {
			d.kill()
		}
	}()
	admin := &http.Client{Timeout: 60 * time.Second}
	if err := getJSON(admin, d.base+"/v1/stats", &leg.before); err != nil {
		return nil, err
	}
	clients := make([]*http.Client, serveSpec.conns)
	for i := range clients {
		clients[i] = &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	leg.samples = openLoop(in.ops, serveSpec.conns, realClock{}, start, func(conn int, o *op) (int, error) {
		return sendOp(clients[conn], d.base, o)
	})
	leg.wall = time.Since(start).Seconds()
	for _, cl := range clients {
		cl.CloseIdleConnections()
	}
	if err := getJSON(admin, d.base+"/v1/stats", &leg.after); err != nil {
		return nil, err
	}
	var err error
	leg.final, leg.digest, err = finalState(admin, d.base)
	if err != nil {
		return nil, err
	}
	admin.CloseIdleConnections()
	ok = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	leg.rssMiB = maxRSSMiB(d.cmd.ProcessState)
	return leg, nil
}

// sendOp performs one scheduled request and drains its reply.
func sendOp(client *http.Client, base string, o *op) (int, error) {
	var resp *http.Response
	var err error
	path := base + "/v1/entities/" + url.PathEscape(o.Key)
	switch o.Kind {
	case opAppend:
		resp, err = client.Post(path+"/evidence", "application/json", bytes.NewReader(o.Body))
	case opTopK:
		resp, err = client.Get(path + "/topk?k=" + strconv.Itoa(o.K))
	default:
		resp, err = client.Get(path)
	}
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// finalState reads every live entity back and returns each one's
// canonical answer plus a digest over all of them in key order.
func finalState(client *http.Client, base string) (map[string]string, string, error) {
	var list struct {
		Entities []struct {
			Key string `json:"key"`
		} `json:"entities"`
	}
	if err := getJSON(client, base+"/v1/entities", &list); err != nil {
		return nil, "", err
	}
	final := make(map[string]string, len(list.Entities))
	for _, e := range list.Entities {
		var ans map[string]any
		if err := getJSON(client, base+"/v1/entities/"+url.PathEscape(e.Key), &ans); err != nil {
			return nil, "", err
		}
		final[e.Key] = canonical(ans)
	}
	return final, stateDigest(final), nil
}

// canonical renders an entity answer for comparison: the timing and the
// order-dependent conflict witness are dropped, and numbers keep the
// exact text the server wrote.
func canonical(ans map[string]any) string {
	delete(ans, "elapsed_us")
	if _, ok := ans["conflict"]; ok {
		ans["conflict"] = "(witness not compared)"
	}
	b, _ := json.Marshal(ans) // maps of decoded JSON always marshal
	return string(b)
}

func stateDigest(final map[string]string) string {
	h := sha256.New()
	for _, k := range sortedKeys(final) {
		fmt.Fprintf(h, "%s\t%s\n", k, final[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// freshAnswers deduces every entity's accumulated evidence in one fresh
// batch and renders each answer the way the server does, without the
// version (a fresh batch is always version 0). The daemon's final state
// must match it (DESIGN.md invariant 1a).
func freshAnswers(in *serveInput, files *batchFiles) (map[string]string, error) {
	mf, err := os.Open(files.master)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	ms, err := csvio.ReadMaster(mf, "master")
	if err != nil {
		return nil, err
	}
	rules, err := core.ParseRules(string(in.batch.rules), in.schema, ms.Schema())
	if err != nil {
		return nil, err
	}
	entities := make([]*model.EntityInstance, len(in.keys))
	for i, k := range in.keys {
		ie := model.NewEntityInstance(in.schema)
		if entities[i], err = ie.Extend(in.evidence[k]...); err != nil {
			return nil, err
		}
	}
	results, _, err := pipeline.Run(entities, pipeline.Config{Master: ms, Rules: rules})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(results))
	for i, r := range results {
		out[in.keys[i]] = withoutVersion(answerJSON(in.keys[i], &r))
	}
	return out, nil
}

// answerJSON renders a result as GET /v1/entities/{key} does, in
// canonical form.
func answerJSON(key string, r *pipeline.Result) string {
	ans := entityReply(r)
	ans["key"] = key
	// Round-trip through the decoder the HTTP side uses, so both sides
	// render numbers identically.
	b, _ := json.Marshal(ans)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var back map[string]any
	_ = dec.Decode(&back) // just encoded above
	return canonical(back)
}

// entityReply builds the per-entity object the server encodes in its
// replies (server.entityJSON, which is unexported).
func entityReply(r *pipeline.Result) map[string]any {
	out := map[string]any{
		"key": r.Key, "version": r.Version, "tuples": r.Instance.Size(),
		"status": r.Status(), "elapsed_us": r.Elapsed.Microseconds(),
	}
	if r.Err != nil {
		out["error"] = r.Err.Error()
	}
	if r.Deduction != nil {
		out["church_rosser"] = r.Deduction.CR
		if r.Deduction.CR {
			out["target"] = tupleReply(r.Deduction.Target)
			out["complete"] = r.Deduction.Target.Complete()
		} else {
			out["conflict"] = r.Deduction.Conflict
		}
	}
	return out
}

func tupleReply(t *model.Tuple) map[string]any {
	out := make(map[string]any, t.Schema().Arity())
	for a := 0; a < t.Schema().Arity(); a++ {
		out[t.Schema().Attr(a)] = valueJSON(t.At(a))
	}
	return out
}

// valueJSON is the server's JSON rendering of a model value.
func valueJSON(v model.Value) any {
	switch v.Kind() {
	case model.Null:
		return nil
	case model.String:
		return v.Str()
	case model.Int:
		return v.Int()
	case model.Float:
		// JSON has no NaN or ±Inf; the server writes their string forms.
		if f := v.Float(); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return v.String()
	case model.Bool:
		return v.Bool()
	}
	return v.String()
}

// withoutVersion drops the version field from a canonical answer.
func withoutVersion(ans string) string {
	var m map[string]any
	dec := json.NewDecoder(strings.NewReader(ans))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return ans
	}
	delete(m, "version")
	b, _ := json.Marshal(m)
	return string(b)
}

func runServe(c *runCtx) (*result, error) {
	in, err := genServeInput(c.seed, c.seconds)
	if err != nil {
		return nil, err
	}
	files, err := writeBatchFiles(c.work, in.batch)
	if err != nil {
		return nil, err
	}
	res := newResult()
	stampEnv(res, c, "serve_mix")
	appends := 0
	for _, o := range in.ops {
		if o.Kind == opAppend {
			appends++
		}
	}
	res.addStamp("seed_rows", in.batch.rows)
	res.addStamp("seed_entities", in.batch.entities)
	res.addStamp("new_entities", in.newKeys)
	res.addStamp("rules", in.batch.nrules)
	res.addStamp("ops", len(in.ops))
	res.addStamp("offered_rate", fmt.Sprintf("%.0f req/s open loop over %d connections (%d appends, one tuple each)", in.rate, serveSpec.conns, appends))
	res.addStamp("fsync", "always")

	reps := serveSetupReps
	if c.trace {
		reps = 1
	}
	leg, err := runHTTPLeg(c, in, files, reps)
	if err != nil {
		return nil, err
	}
	res.addStamp("data_dir_fs", leg.fs)
	res.addStamp("latencies", "loopback TCP and the data-dir filesystem of the host running the benchmark, not a storage device's")

	// Correctness: the daemon's final state equals a fresh batch over the
	// evidence the load sent.
	fresh, err := freshAnswers(in, files)
	if err != nil {
		return nil, err
	}
	mismatches := 0
	for _, k := range sortedKeys(fresh) {
		got, ok := leg.final[k]
		if !ok || withoutVersion(got) != fresh[k] {
			if mismatches < 3 {
				res.notef("MISMATCH %s: daemon %s, fresh batch %s", k, got, fresh[k])
			}
			mismatches++
		}
	}
	if mismatches > 0 || len(leg.final) != len(fresh) {
		res.correct = false
		res.notef("MISMATCH: %d of %d entities differ from a fresh batch (daemon holds %d)", mismatches, len(fresh), len(leg.final))
	} else {
		res.notef("final state of %d entities equals a fresh batch over the sent evidence", len(fresh))
	}
	checkGolden(c, res, "serve_mix", c.seconds, leg.digest)

	lat := [numOpKinds][]float64{}
	var lags []float64
	rejected := 0
	for i, s := range leg.samples {
		res.attempted++
		if !s.ok() {
			res.failed++
			if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
				rejected++
			}
			continue
		}
		k := in.ops[i].Kind
		lat[k] = append(lat[k], float64(s.latency())/float64(time.Millisecond))
		lags = append(lags, float64(s.lag())/float64(time.Millisecond))
	}
	rows := float64(len(lat[opAppend]))
	res.set("setup_s", median(leg.setup), len(leg.setup), "median spawn → first /healthz 200, seed included")
	res.set("rows_per_s", ratio(rows, leg.wall), len(lat[opAppend]), fmt.Sprintf("acknowledged appended rows ÷ %.3fs of load; the offered rate until the daemon saturates", leg.wall))
	res.set("peak_rss_mb", leg.rssMiB, 1, "max RSS of the serving daemon")
	for k := opKind(0); k < numOpKinds; k++ {
		for _, p := range []float64{50, 99} {
			name := fmt.Sprintf("%s_p%g_ms", k, p)
			pc, err := percentileOf(lat[k], p)
			if err != nil {
				res.notef("%s not reported: %v", name, err)
				continue
			}
			res.set(name, pc.Value, pc.N, "from the scheduled send")
			if !c.trace {
				res.notef("%s = %.3f ms (n=%d, from the scheduled send)", name, pc.Value, pc.N)
			}
		}
	}
	if lag, err := percentileOf(lags, 99); err != nil {
		res.notef("load.lag_p99_ms not reported: %v", err)
	} else {
		res.set("load.lag_p99_ms", lag.Value, lag.N, "generator lateness versus schedule")
		res.notef("load generator lag p99 = %.3f ms (n=%d)", lag.Value, lag.N)
	}
	res.set("server.rejected", float64(rejected), len(leg.samples), "429/503 replies")
	b, a := leg.before, leg.after
	res.notef("settled memo: +%d hits, +%d misses during the load (base before: %d hits, %d misses)",
		a.SettledHits-b.SettledHits, a.SettledMisses-b.SettledMisses, b.SettledHits, b.SettledMisses)
	res.notef("verdict cache: %+d hits, %+d misses during the load (base before: %d hits, %d misses; live versions only)",
		a.VerdictHits-b.VerdictHits, a.VerdictMisses-b.VerdictMisses, b.VerdictHits, b.VerdictMisses)
	if c.trace {
		return traceServe(c, in, files, leg, res)
	}
	return res, nil
}
