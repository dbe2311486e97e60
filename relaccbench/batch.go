package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// batchSpec is one workload driven through relacc batch.
type batchSpec struct {
	name    string
	by      string
	topK    int
	workers int
	input   func(seed int64) (*batchInput, error)
}

// Sizes: one CLI run takes two to seven seconds on a 2-core machine, so
// a 20-second run repeats it three to nine times. batch_large runs on
// one worker: two concurrent 300-tuple groundings each allocate about
// 610 MiB, and their race with the collector moves peak RSS by ±11%
// from run to run, against ±3% on one worker.
var (
	batchMed = batchSpec{name: "batch_med", by: "name", topK: 3, workers: 2,
		input: func(seed int64) (*batchInput, error) { return medBatchInput(medDataset(seed, 2700, 0)) }}
	batchLarge = batchSpec{name: "batch_large", by: "name", topK: 3, workers: 1,
		input: func(seed int64) (*batchInput, error) { return medBatchInput(medDataset(seed, 8, 300)) }}
	ingestSmall = batchSpec{name: "ingest_small", by: "id", topK: 0, workers: 2,
		input: func(seed int64) (*batchInput, error) { return smallInput(seed, 100_000), nil }}
)

// setupReps is how many header-only invocations set-up time is the
// median of.
const setupReps = 31

// refWorkers is the worker count of the traced run's reference
// relacc batch, which must agree with the 1-worker passes.
const refWorkers = 2

// batchFiles are one workload's inputs on disk.
type batchFiles struct {
	data, header, master, rules string
}

func writeBatchFiles(dir string, in *batchInput) (*batchFiles, error) {
	f := &batchFiles{
		data:   filepath.Join(dir, "data.csv"),
		header: filepath.Join(dir, "header.csv"),
		rules:  filepath.Join(dir, "rules.txt"),
	}
	header := in.data[:bytes.IndexByte(in.data, '\n')+1]
	files := map[string][]byte{f.data: in.data, f.header: header, f.rules: in.rules}
	if in.master != nil {
		f.master = filepath.Join(dir, "master.csv")
		files[f.master] = in.master
	}
	for path, data := range files {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// cliRun is one finished relacc batch invocation.
type cliRun struct {
	wall     time.Duration
	rssMiB   float64
	summary  string // the summary line with its elapsed time removed
	digest   string
	entities int
	errors   int
}

var summaryRE = regexp.MustCompile(`(?m)^(\d+) entities in [^:]+: (.*?(\d+) errors;.*)$`)

// runCLI runs relacc batch over data with the spec's flags, writing the
// settled targets to out, and digests the outputs.
func runCLI(c *runCtx, s batchSpec, f *batchFiles, data, out string) (*cliRun, error) {
	args := []string{"batch", "-data", data, "-rules", f.rules, "-by", s.by,
		"-topk", strconv.Itoa(s.topK), "-workers", strconv.Itoa(s.workers), "-o", out}
	if f.master != "" {
		args = append(args, "-master", f.master)
	}
	cmd := exec.Command(filepath.Join(c.bin, "relacc"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("relacc %v: %w\n%s", args, err, stderr.String())
	}
	r := &cliRun{wall: time.Since(start), rssMiB: maxRSSMiB(cmd.ProcessState)}
	m := summaryRE.FindStringSubmatch(stdout.String())
	if m == nil {
		return nil, fmt.Errorf("relacc batch printed no summary line:\n%s", stdout.String())
	}
	r.summary = normalizeSummary(m[0])
	r.entities, _ = strconv.Atoi(m[1])
	r.errors, _ = strconv.Atoi(m[3])
	settled, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	r.digest = batchDigest(settled, r.summary)
	return r, nil
}

// batchDigest identifies a batch's outputs: the settled-target CSV and
// the summary line without its elapsed time.
func batchDigest(settled []byte, summary string) string {
	h := sha256.New()
	h.Write(settled)
	h.Write([]byte("\n" + summary + "\n"))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// maxRSSMiB is a finished child's peak resident set.
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func runBatch(c *runCtx, s batchSpec) (*result, error) {
	in, err := s.input(c.seed)
	if err != nil {
		return nil, err
	}
	f, err := writeBatchFiles(c.work, in)
	if err != nil {
		return nil, err
	}
	res := newResult()
	stampEnv(res, c, s.name)
	res.addStamp("rows", in.rows)
	res.addStamp("entities", in.entities)
	res.addStamp("rules", in.nrules)
	res.addStamp("master", in.master != nil)
	res.addStamp("cli", fmt.Sprintf("relacc batch -by %s -topk %d -workers %d", s.by, s.topK, s.workers))
	out := filepath.Join(c.work, "settled.csv")

	if c.trace {
		return traceBatch(c, s, f, res)
	}

	var setup []float64
	for i := 0; i < setupReps; i++ {
		r, err := runCLI(c, s, f, f.header, out)
		if err != nil {
			return nil, err
		}
		setup = append(setup, r.wall.Seconds())
	}
	res.set("setup_s", median(setup), len(setup), "median of header-only invocations")

	var rates, rss []float64
	var first *cliRun
	// Run at least three times, and start another run only while it is
	// expected to end within the measured seconds.
	start, budget, last := time.Now(), time.Duration(c.seconds)*time.Second, time.Duration(0)
	for len(rates) < 3 || time.Since(start)+last <= budget {
		r, err := runCLI(c, s, f, f.data, out)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = r
		} else if r.digest != first.digest {
			res.correct = false
			res.notef("MISMATCH: run %d digest %s differs from run 1's %s", len(rates)+1, r.digest, first.digest)
		}
		last = r.wall
		rates = append(rates, float64(in.rows)/r.wall.Seconds())
		rss = append(rss, r.rssMiB)
		res.attempted += r.entities
		res.failed += r.errors
	}
	res.set("rows_per_s", median(rates), len(rates), "median over CLI runs")
	// Per-run peaks are bimodal (where the last collection falls decides
	// them), so their median flips between the modes; their maximum is
	// the run's peak and does not.
	res.set("peak_rss_mb", maxOf(rss), len(rss), "highest per-run max RSS")
	res.notef("per-run rows/s %.0f", rates)
	res.notef("per-run max RSS MiB %.1f", rss)
	res.notef("summary: %s", first.summary)
	checkGolden(c, res, s.name, 0, first.digest)
	return res, nil
}
