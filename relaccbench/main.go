// Command relaccbench is the repository's benchmark: it generates seeded
// inputs for one workload, drives the shipped binaries (relacc batch,
// relaccd) end to end, checks their outputs, and prints every metric by
// name with its unit and sample count. With -trace 1 it instead runs the
// workload's layers in-process under a span tracer and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.sh from the repository root; see
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// workloadSpec describes one workload; run executes it.
type workloadSpec struct {
	name string
	run  func(c *runCtx) (*result, error)
}

var workloads = []workloadSpec{
	{"batch_med", func(c *runCtx) (*result, error) { return runBatch(c, batchMed) }},
	{"batch_large", func(c *runCtx) (*result, error) { return runBatch(c, batchLarge) }},
	{"ingest_small", func(c *runCtx) (*result, error) { return runBatch(c, ingestSmall) }},
	{"serve_mix", runServe},
}

// runCtx is what every workload runs with.
type runCtx struct {
	root    string // checkout root; BENCHMARK.json lives here
	bin     string // built relacc and relaccd
	work    string // this run's scratch directory, removed at exit
	traces  string // where traced runs leave their spans
	seed    int64
	seconds int
	trace   bool
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	n     int
	note  string // how the value was reduced, for the report
}

// result is what a workload run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]measured
	stamp     [][2]string // environment and size stamp, in print order
	notes     []string    // further report lines (cache bases, checks)
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]measured{}}
}

func (r *result) set(name string, value float64, n int, note string) {
	r.metrics[name] = measured{value: value, n: n, note: note}
}

func (r *result) addStamp(key string, value any) {
	r.stamp = append(r.stamp, [2]string{key, fmt.Sprint(value)})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func main() {
	root := flag.String("root", ".", "repository checkout root")
	build := flag.String("build", ".bench_build", "directory holding bin/relacc and bin/relaccd")
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced in-process run printing per-layer metrics")
	flag.Parse()
	if err := mainErr(*root, *build, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "relaccbench:", err)
		os.Exit(1)
	}
}

func mainErr(root, build, name string, seed int64, seconds int, trace bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	bf, err := readBenchFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	work, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	c := &runCtx{root: root, bin: filepath.Join(build, "bin"), work: work, traces: filepath.Join(build, "traces"),
		seed: seed, seconds: seconds, trace: trace}
	res, err := spec.run(c)
	if err != nil {
		return err
	}
	want := bf.EndToEnd
	if trace {
		want = bf.PerLayer
	}
	line, err := report(os.Stdout, res, want)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.correct {
		return fmt.Errorf("%s: outputs failed the correctness check (see the report above)", name)
	}
	return nil
}

// report prints the human-readable report and returns the JSON result
// line holding exactly the metrics want lists. A listed metric the run
// did not measure, or measured in another unit, is an error.
func report(w io.Writer, res *result, want []benchMetric) (string, error) {
	for _, kv := range res.stamp {
		fmt.Fprintf(w, "env %-22s %s\n", kv[0], kv[1])
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	for name := range res.metrics {
		if _, ok := metricUnits[name]; !ok {
			return "", fmt.Errorf("measured metric %s is not in the metric registry", name)
		}
	}
	out := map[string]jsonMetric{}
	for _, m := range want {
		unit, ok := metricUnits[m.Name]
		if !ok || unit != m.Unit {
			return "", fmt.Errorf("BENCHMARK.json metric %s [%s] is not one this benchmark measures", m.Name, m.Unit)
		}
		v, ok := res.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		line := fmt.Sprintf("metric %-28s %14s %-6s n=%d", m.Name, strconv.FormatFloat(v.value, 'g', 8, 64), m.Unit, v.n)
		if v.note != "" {
			line += "  (" + v.note + ")"
		}
		fmt.Fprintln(w, line)
		out[m.Name] = jsonMetric{Value: v.value, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	return string(b), err
}
