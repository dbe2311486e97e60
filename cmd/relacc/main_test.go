package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/csvio"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/ruledsl"
)

// TestAtomicWrite pins the temp-file-plus-rename mechanism the -o paths
// rely on: success replaces the destination completely, failure leaves
// the previous content byte-identical, and neither path strands a temp
// file next to the output.
func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old content\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := atomicWrite(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new content\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new content\n" {
		t.Fatalf("after success: %q", got)
	}

	// A writer that emits half the output and then fails models the
	// truncated-CSV bug: the destination must keep the SUCCESSFUL run's
	// content, not the torn prefix.
	boom := errors.New("boom")
	err = atomicWrite(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "torn pre"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new content\n" {
		t.Fatalf("failed write touched the destination: %q", got)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out.csv" {
			t.Fatalf("stranded temp file %q", e.Name())
		}
	}
}

// TestAtomicWriteBareFilename: a destination with no directory part
// (`-o fused.csv`, as the README shows) must stage its temp file in
// the CURRENT directory, not os.TempDir — renaming out of a tmpfs
// /tmp would fail cross-device.
func TestAtomicWriteBareFilename(t *testing.T) {
	dir := t.TempDir()
	// os.Chdir + restore rather than t.Chdir: CI builds at the go.mod
	// language version (1.22), which predates testing.T.Chdir.
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(prev) })
	if err = atomicWrite("out.csv", func(w io.Writer) error {
		_, err := io.WriteString(w, "bare\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "out.csv")); err != nil || string(got) != "bare\n" {
		t.Fatalf("bare-filename write: %q, %v", got, err)
	}
	// A fresh destination gets os.Create's mode: 0666 through the
	// process umask — neither CreateTemp's 0600 nor an umask-ignoring
	// blanket 0644.
	um := processUmask()
	st, err := os.Stat(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := os.FileMode(0o666) &^ os.FileMode(um); st.Mode().Perm() != want {
		t.Fatalf("fresh output mode = %v, want %v (umask %04o)", st.Mode().Perm(), want, um)
	}
}

// TestBatchWritesSettledCSV drives the real binary end to end: a small
// relation is grouped by id, deduced, and -o must hold the settled
// targets with no temp droppings left behind.
func TestBatchWritesSettledCSV(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "relation.csv")
	rules := filepath.Join(dir, "rules.txt")
	out := filepath.Join(dir, "settled.csv")
	// Two entities: m1 has conflicting rnds/jersey settled by the rules
	// (higher rnds is more current and carries the jersey number); m2 is
	// a singleton and settles trivially.
	if err := os.WriteFile(data, []byte(
		"id,league,rnds,jersey\n"+
			"m1,east,30,45\n"+
			"m1,east,80,23\n"+
			"m2,west,10,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rules, []byte(
		"phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds\n"+
			"phi2: t1 < t2 @ rnds -> t1 <= t2 @ jersey\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "run", ".", "batch",
		"-data", data, "-rules", rules, "-by", "id", "-o", out)
	cmd.Env = os.Environ()
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("relacc batch: %v\n%s", err, outBytes)
	}
	if !strings.Contains(string(outBytes), "settled targets") {
		t.Fatalf("unexpected output:\n%s", outBytes)
	}
	content, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(content)), "\n")
	if len(lines) != 3 { // header + one settled target per entity
		t.Fatalf("settled CSV holds %d lines:\n%s", len(lines), content)
	}
	if lines[0] != "id,league,rnds,jersey" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(string(content), "m1,east,80,23") {
		t.Fatalf("m1 not settled on the more accurate tuple:\n%s", content)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("stranded temp file %q", e.Name())
		}
	}
}

// buildRelacc compiles the command into a temporary directory so a
// test can run it several times without paying for `go run` each time.
func buildRelacc(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "relacc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runRelacc runs the built binary and returns its stdout; any failure
// fails the test with the combined output.
func runRelacc(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("relacc %v: %v\n%s%s", args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// medFiles writes a small generated Med dataset (master relation and
// rule file included) and returns the directory plus the relation's
// tuples in a seeded shuffled order.
func medFiles(t *testing.T, entities int) (dir string, schema *model.Schema, shuffled []*model.Tuple) {
	t.Helper()
	cfg := gen.MedConfig()
	cfg.NumEntities = entities
	ds := gen.Generate(cfg)
	for _, e := range ds.Entities {
		shuffled = append(shuffled, e.Instance.Tuples()...)
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dir = t.TempDir()
	var master bytes.Buffer
	if err := csvio.WriteRelation(&master, ds.Master.Schema(), ds.Master.Tuples()); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "master.csv"), master.Bytes())
	writeFile(t, filepath.Join(dir, "rules.txt"), []byte(ruledsl.Format(ds.Rules.Rules())))
	return dir, ds.Schema, shuffled
}

// runLengthOrder regroups tuples into contiguous per-key runs, keys in
// first-appearance order and each key's tuples in their input order:
// the same entities, in the same order, as grouping the input itself.
func runLengthOrder(tuples []*model.Tuple, by string) []*model.Tuple {
	var keys []string
	runs := map[string][]*model.Tuple{}
	for _, tp := range tuples {
		v, _ := tp.Get(by)
		k := v.Key()
		if _, ok := runs[k]; !ok {
			keys = append(keys, k)
		}
		runs[k] = append(runs[k], tp)
	}
	var out []*model.Tuple
	for _, k := range keys {
		out = append(out, runs[k]...)
	}
	return out
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeRelationFile(t *testing.T, path string, schema *model.Schema, tuples []*model.Tuple) {
	t.Helper()
	var buf bytes.Buffer
	if err := csvio.WriteRelation(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, buf.Bytes())
}

var elapsedRE = regexp.MustCompile(`^(\d+ entities) in [^:]+:`)

// verdictLines keeps the lines of a batch report that describe
// outcomes — per-entity verdicts and the summary, with the summary's
// elapsed time stripped — and drops the ingest preamble and the line
// naming the output path.
func verdictLines(out string) []string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "entity "):
			keep = append(keep, line)
		case elapsedRE.MatchString(line):
			keep = append(keep, elapsedRE.ReplaceAllString(line, "$1:"))
		}
	}
	return keep
}

// TestBatchRowOrderEquivalence: relacc batch -by over one relation in
// contiguous per-key runs and in shuffled row order writes the same
// settled targets and reports the same verdicts. The grouper differs
// (run-length input streams at window 1, shuffled input needs the
// unbounded window); the answers must not.
func TestBatchRowOrderEquivalence(t *testing.T) {
	bin := buildRelacc(t)
	dir, schema, shuffled := medFiles(t, 16)
	writeRelationFile(t, filepath.Join(dir, "sorted.csv"), schema, runLengthOrder(shuffled, "name"))
	writeRelationFile(t, filepath.Join(dir, "shuffled.csv"), schema, shuffled)

	run := func(data string) ([]string, []byte) {
		out := filepath.Join(dir, data+".out.csv")
		stdout := runRelacc(t, bin, "batch", "-data", filepath.Join(dir, data),
			"-master", filepath.Join(dir, "master.csv"), "-rules", filepath.Join(dir, "rules.txt"),
			"-by", "name", "-topk", "3", "-workers", "2", "-o", out)
		settled, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return verdictLines(stdout), settled
	}
	sortedLines, sortedOut := run("sorted.csv")
	shuffledLines, shuffledOut := run("shuffled.csv")
	if !bytes.Equal(sortedOut, shuffledOut) {
		t.Fatalf("-o differs by row order:\nsorted:\n%s\nshuffled:\n%s", sortedOut, shuffledOut)
	}
	if strings.Count(string(sortedOut), "\n") < 2 {
		t.Fatalf("no settled targets written:\n%s", sortedOut)
	}
	if len(sortedLines) == 0 || strings.Join(sortedLines, "\n") != strings.Join(shuffledLines, "\n") {
		t.Fatalf("verdicts differ by row order:\nsorted:\n%s\nshuffled:\n%s",
			strings.Join(sortedLines, "\n"), strings.Join(shuffledLines, "\n"))
	}
}

// TestAppendBaseOrderEquivalence: relacc append over a base relation in
// per-key runs and over the same base shuffled, followed by the same
// delta (more evidence for existing entities plus a new entity), writes
// the same settled targets.
func TestAppendBaseOrderEquivalence(t *testing.T) {
	bin := buildRelacc(t)
	dir, schema, shuffled := medFiles(t, 14)
	// Hold back every entity's last tuple and one whole entity as the
	// delta; the rest is the base.
	name := schema.Index("name")
	last := map[string]int{}
	for i, tp := range shuffled {
		last[tp.At(name).Key()] = i
	}
	newKey := shuffled[len(shuffled)-1].At(name).Key()
	var base, delta []*model.Tuple
	for i, tp := range shuffled {
		if k := tp.At(name).Key(); k == newKey || last[k] == i {
			delta = append(delta, tp)
		} else {
			base = append(base, tp)
		}
	}
	writeRelationFile(t, filepath.Join(dir, "sorted.csv"), schema, runLengthOrder(base, "name"))
	writeRelationFile(t, filepath.Join(dir, "shuffled.csv"), schema, base)
	writeRelationFile(t, filepath.Join(dir, "delta.csv"), schema, delta)

	run := func(data string) []byte {
		out := filepath.Join(dir, data+".out.csv")
		runRelacc(t, bin, "append", "-data", filepath.Join(dir, data),
			"-delta", filepath.Join(dir, "delta.csv"),
			"-master", filepath.Join(dir, "master.csv"), "-rules", filepath.Join(dir, "rules.txt"),
			"-by", "name", "-topk", "3", "-workers", "2", "-o", out)
		settled, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return settled
	}
	sortedOut, shuffledOut := run("sorted.csv"), run("shuffled.csv")
	if !bytes.Equal(sortedOut, shuffledOut) {
		t.Fatalf("-o differs by base row order:\nsorted:\n%s\nshuffled:\n%s", sortedOut, shuffledOut)
	}
	if strings.Count(string(sortedOut), "\n") < 2 {
		t.Fatalf("no settled targets written:\n%s", sortedOut)
	}
}

// TestBatchKeyGrouping pins one similarity-grouped batch (-key) to its
// settled rows: misspelled names merge into one entity per player, and
// each entity settles on its most current tuple.
func TestBatchKeyGrouping(t *testing.T) {
	bin := buildRelacc(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "relation.csv"), []byte(
		"name,league,rnds,jersey\n"+
			"Michael Jordan,NBA,30,45\n"+
			"Scottie Pippen,NBA,12,33\n"+
			"Micheal Jordan,NBA,80,23\n"+
			"Scotty Pippen,NBA,40,8\n"+
			"Dennis Rodman,NBA,5,91\n"))
	writeFile(t, filepath.Join(dir, "rules.txt"), []byte(
		"phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds\n"+
			"phi2: t1 < t2 @ rnds -> t1 <= t2 @ jersey\n"+
			"phi3: t1 < t2 @ rnds -> t1 <= t2 @ name\n"))
	out := filepath.Join(dir, "settled.csv")
	stdout := runRelacc(t, bin, "batch", "-data", filepath.Join(dir, "relation.csv"),
		"-rules", filepath.Join(dir, "rules.txt"), "-key", "name", "-o", out)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	const want = "name,league,rnds,jersey\n" +
		"Micheal Jordan,NBA,80,23\n" +
		"Scotty Pippen,NBA,40,8\n" +
		"Dennis Rodman,NBA,5,91\n"
	if string(got) != want {
		t.Fatalf("settled rows:\n%s\nwant:\n%s", got, want)
	}
	if lines := verdictLines(stdout); len(lines) != 1 || !strings.HasPrefix(lines[0], "3 entities: 3 complete,") {
		t.Fatalf("summary: %q", lines)
	}
}

// TestCheckCandidateColumns: check rebuilds the candidate over the
// instance schema by column name, so a candidate whose header names an
// unknown column, or lacks one, is rejected with the column named —
// never checked with that attribute silently null — while a correct
// candidate keeps its verdict.
func TestCheckCandidateColumns(t *testing.T) {
	bin := buildRelacc(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "instance.csv"), []byte(
		"id,league,rnds,jersey\nm1,east,30,45\nm1,east,80,23\n"))
	writeFile(t, filepath.Join(dir, "rules.txt"), []byte(
		"phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds\n"+
			"phi2: t1 < t2 @ rnds -> t1 <= t2 @ jersey\n"))
	for _, tc := range []struct {
		name, candidate, want string
	}{
		{"correct", "id,league,rnds,jersey\nm1,east,80,45\n", "candidate FAILS the chase check"},
		{"typo", "id,league,rnds,jersy\nm1,east,80,45\n", `column "jersy" is not in the relation`},
		{"missing", "id,league,rnds\nm1,east,80\n", `column "jersey" is missing`},
	} {
		cand := filepath.Join(dir, tc.name+".csv")
		writeFile(t, cand, []byte(tc.candidate))
		var out bytes.Buffer
		cmd := exec.Command(bin, "check", "-data", filepath.Join(dir, "instance.csv"),
			"-rules", filepath.Join(dir, "rules.txt"), "-candidate", cand)
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("%s: err = %v, want a non-zero exit\n%s", tc.name, err, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output %q does not contain %q", tc.name, out.String(), tc.want)
		}
	}
}
