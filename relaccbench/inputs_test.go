package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// inputDigest hashes everything a workload hands the program under
// test for one seed.
func inputDigest(t *testing.T, workload string, seed int64) string {
	t.Helper()
	h := sha256.New()
	switch workload {
	case "batch_med", "batch_large":
		fixed := 0
		entities := 40
		if workload == "batch_large" {
			entities, fixed = 2, 20
		}
		in, err := medBatchInput(medDataset(seed, entities, fixed))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(in.data)
		h.Write(in.master)
		h.Write(in.rules)
	case "ingest_small":
		in := smallInput(seed, 2_000)
		h.Write(in.data)
		h.Write(in.rules)
	case "serve_mix":
		in, err := genServeInput(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(in.batch.data)
		h.Write(in.batch.master)
		h.Write(in.batch.rules)
		for _, o := range in.ops {
			fmt.Fprintf(h, "%d %s %g %d %d %s\n", o.Kind, o.Key, o.At, o.Conn, o.K, o.Body)
		}
	default:
		t.Fatalf("unknown workload %s", workload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := inputDigest(t, w.name, 7), inputDigest(t, w.name, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w.name)
		}
		if c := inputDigest(t, w.name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
	}
}

func TestServeScheduleShape(t *testing.T) {
	in, err := genServeInput(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var counts [numOpKinds]int
	seeded := map[string]bool{}
	for _, k := range in.keys[:in.batch.entities] {
		seeded[k] = true
	}
	conn := map[string]int{}
	for i, o := range in.ops {
		counts[o.Kind]++
		if i > 0 && o.At < in.ops[i-1].At {
			t.Fatalf("op %d scheduled before op %d", i, i-1)
		}
		if c, ok := conn[o.Key]; ok && c != o.Conn {
			t.Fatalf("key %s sent on connections %d and %d", o.Key, c, o.Conn)
		}
		conn[o.Key] = o.Conn
		if o.Kind != opAppend && !seeded[o.Key] {
			t.Fatalf("op %d reads %s, which the seed does not hold", i, o.Key)
		}
		if o.Kind == opTopK && o.K != 1 && o.K != 3 && o.K != 5 {
			t.Fatalf("op %d asks for k=%d", i, o.K)
		}
		if o.Kind == opAppend && !bytes.HasPrefix(o.Body, []byte(`{"tuples":[{`)) {
			t.Fatalf("op %d body %s", i, o.Body)
		}
	}
	if counts[opAppend] != counts[opTopK] || counts[opTopK] != counts[opGet] {
		t.Fatalf("per-route counts %v, want equal", counts)
	}
	if in.newKeys == 0 {
		t.Fatal("no append creates a new entity")
	}
}
