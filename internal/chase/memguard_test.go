package chase_test

import (
	"runtime"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
)

// TestColdBuildMemoryGuard bounds the bytes one cold grounding of a
// 300-tuple Med entity allocates: Instantiation plus the base chase,
// whose worklist holds only pairs the target order lacks. The bound is
// 128 MiB; a queue that re-admitted held pairs in fat events took
// several times that.
func TestColdBuildMemoryGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation accounting")
	}
	cfg := gen.MedConfig()
	cfg.Seed = 1
	cfg.NumEntities = 1
	cfg.FixedTuples = 300
	cfg.MaxTuples = 300
	ds := gen.Generate(cfg)
	ie := ds.Entities[0].Instance
	sh, err := chase.NewShared(ie.Schema(), ds.Master, ds.Rules)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := sh.NewGrounding(ie, chase.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.Instance().Size() != 300 {
		t.Fatalf("grounded %d tuples, want 300", g.Instance().Size())
	}
	const limit = 128 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("one 300-tuple Med grounding allocated %.1f MiB", float64(alloc)/(1<<20))
	if alloc >= limit {
		t.Fatalf("cold grounding allocated %d bytes, limit %d", alloc, limit)
	}
}
