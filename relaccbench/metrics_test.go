package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsMatchBenchmarkFile pins the metric names the benchmark can
// print to the ones BENCHMARK.json declares, both ways, with units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("metric %s declared twice", m.Name)
		}
		declared[m.Name] = m.Unit
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not fit the name grammar", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s does not fit the unit grammar", m.Unit, m.Name)
		}
	}
	for name, unit := range metricUnits {
		if got, ok := declared[name]; !ok {
			t.Errorf("metric %s is measured but not in BENCHMARK.json", name)
		} else if got != unit {
			t.Errorf("metric %s: BENCHMARK.json unit %s, measured in %s", name, got, unit)
		}
	}
	for name := range declared {
		if _, ok := metricUnits[name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which the benchmark never measures", name)
		}
	}
	names := map[string]bool{}
	for _, w := range bf.Workloads {
		names[w.Name] = true
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not fit the name grammar", w.Name)
		}
	}
	for _, w := range workloads {
		if !names[w.name] {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
}

// TestReportPrintsOnlyDeclaredMetrics checks the printer: it emits the
// requested metrics with units and counts, and refuses a measured name
// the registry does not know.
func TestReportPrintsOnlyDeclaredMetrics(t *testing.T) {
	res := newResult()
	res.set("setup_s", 0.5, 3, "")
	res.set("rows_per_s", 1000, 5, "")
	var out bytes.Buffer
	want := []benchMetric{{Name: "setup_s", Unit: "s"}, {Name: "rows_per_s", Unit: "rows/s"}}
	line, err := report(&out, res, want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"setup_s":{"value":0.5,"unit":"s"}`) || strings.Contains(line, "peak_rss_mb") {
		t.Fatalf("result line %s", line)
	}
	printed := out.String()
	for _, l := range strings.Split(strings.TrimSpace(printed), "\n") {
		if f := strings.Fields(l); f[0] == "metric" && !nameRE.MatchString(f[1]) {
			t.Errorf("printed metric name %q does not fit the grammar", f[1])
		}
	}
	if !strings.Contains(printed, "n=5") {
		t.Errorf("report does not print sample counts:\n%s", printed)
	}
	res.set("no.such_metric", 1, 1, "")
	if _, err := report(&out, res, want); err == nil {
		t.Fatal("a measured metric missing from the registry was printed without error")
	}
	if _, err := report(&out, newResult(), want); err == nil {
		t.Fatal("a requested metric that was not measured did not fail the report")
	}
}
