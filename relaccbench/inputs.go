package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/csvio"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/ruledsl"
)

// batchInput is what one batch workload hands the program under test:
// a relation CSV grouped in contiguous runs of the identifier column,
// an optional master CSV and the rule file text.
type batchInput struct {
	data     []byte
	master   []byte // nil: no master relation
	rules    []byte
	rows     int
	entities int
	nrules   int
}

// medDataset generates the paper's Med shape with the benchmark seed.
func medDataset(seed int64, entities, fixedTuples int) *gen.Dataset {
	cfg := gen.MedConfig()
	cfg.Seed = seed
	cfg.NumEntities = entities
	if fixedTuples > 0 {
		cfg.FixedTuples = fixedTuples
		cfg.MaxTuples = fixedTuples
	}
	return gen.Generate(cfg)
}

// medBatchInput renders a generated Med dataset as batch files.
func medBatchInput(ds *gen.Dataset) (*batchInput, error) {
	var tuples []*model.Tuple
	for _, e := range ds.Entities {
		tuples = append(tuples, e.Instance.Tuples()...)
	}
	var data, master bytes.Buffer
	if err := csvio.WriteRelation(&data, ds.Schema, tuples); err != nil {
		return nil, err
	}
	if err := csvio.WriteRelation(&master, ds.Master.Schema(), ds.Master.Tuples()); err != nil {
		return nil, err
	}
	return &batchInput{
		data:     data.Bytes(),
		master:   master.Bytes(),
		rules:    []byte(ruledsl.Format(ds.Rules.Rules())),
		rows:     len(tuples),
		entities: len(ds.Entities),
		nrules:   ds.Rules.Len(),
	}, nil
}

// smallRules is ingest_small's rule set: form-(1) currency rules only,
// no master data, so grounding stays cheap and the ingest layers show.
const smallRules = `# currency: a later timestamp is more current
r0: t1[ts] < t2[ts] -> t1 <= t2 @ ts
r1: t1[ts] < t2[ts] -> t1 <= t2 @ status
`

// smallInput generates ingest_small: many small entities (two to
// seven tuples each) in contiguous runs, as a change log exported one
// entity at a time arrives. Only ts and status change within an
// entity; the profile columns repeat, so they resolve by agreement.
func smallInput(seed int64, rows int) *batchInput {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString("id,ts,status,email,plan,note\n")
	statuses := []string{"active", "paused", "closed", "trial"}
	plans := []string{"free", "basic", "pro", "team", "enterprise"}
	words := []string{"renewed", "moved", "called", "upgraded", "billing", "support", "visit", "email"}
	n, entities := 0, 0
	for n < rows {
		size := 2 + rng.Intn(6)
		if size > rows-n {
			size = rows - n
		}
		base := rng.Intn(1_000_000)
		plan := plans[rng.Intn(len(plans))]
		note := fmt.Sprintf("%s, %s %s (ref %d)", words[rng.Intn(len(words))],
			words[rng.Intn(len(words))], words[rng.Intn(len(words))], rng.Intn(1_000_000))
		for i := 0; i < size; i++ {
			fmt.Fprintf(&b, "u%07d,%d,%s,user%d@example.org,%s,\"%s\"\n", entities, base+i,
				statuses[rng.Intn(len(statuses))], entities, plan, note)
		}
		n += size
		entities++
	}
	return &batchInput{data: b.Bytes(), rules: []byte(smallRules), rows: n, entities: entities, nrules: 2}
}

// opKind is one serve_mix request type.
type opKind int

const (
	opAppend opKind = iota
	opTopK
	opGet
	numOpKinds
)

var opNames = [numOpKinds]string{"append", "topk", "get"}

func (k opKind) String() string { return opNames[k] }

// op is one scheduled serve_mix request.
type op struct {
	Kind opKind
	Key  string
	At   float64 // scheduled send, seconds after the load starts
	Conn int     // connection that carries it; fixed per key
	K    int     // topk: candidates requested
	Body []byte  // append: JSON body
}

// serveInput is serve_mix's generated input: the seed CSV handed to
// relaccd, its master and rules, and the request schedule.
type serveInput struct {
	batch   *batchInput // seed relation (data), master and rules
	schema  *model.Schema
	ops     []op
	rate    float64 // offered requests per second
	newKeys int     // entities first created by an append
	// evidence is every entity's tuples in the order the daemon
	// absorbs them: seeded tuples, then appended ones in schedule
	// order. A fresh batch over it must reproduce the daemon's state.
	evidence map[string][]*model.Tuple
	keys     []string // evidence keys, seeded first then creation order
}

// serveMixSpec sizes serve_mix per second of measured load.
type serveMixSpec struct {
	perRoute    float64 // offered requests per second for each route
	conns       int
	newFrac     float64 // share of entities absent from the seed
	zipfS       float64 // key skew: P(rank r) ∝ (zipfV + r)^-zipfS
	zipfV       float64
	entPerSec   int // Med entities generated per second of load
	minEntities int
}

var serveSpec = serveMixSpec{perRoute: 110, conns: 2, newFrac: 0.1, zipfS: 1.1, zipfV: 10, entPerSec: 80, minEntities: 400}

// genServeInput splits a Med dataset into a seed half and an append
// pool and draws the open-loop schedule: appends of the pooled tuples
// (one tuple per POST), topk queries with k in {1,3,5} and entity
// reads, in exact per-route counts, evenly spaced at the offered rate.
// Keys are Zipf-skewed over one seeded ranking, so the entities read
// most are also grown most.
func genServeInput(seed int64, seconds int) (*serveInput, error) {
	spec := serveSpec
	nEnt := spec.entPerSec * seconds
	if nEnt < spec.minEntities {
		nEnt = spec.minEntities
	}
	ds := medDataset(seed, nEnt, 0)
	rng := rand.New(rand.NewSource(seed ^ 0x5e77e))
	schema := ds.Schema
	nameIdx := schema.Index("name")

	rank := rng.Perm(len(ds.Entities)) // rank[i] = entity at popularity i
	pool := make(map[string][]*model.Tuple)
	in := &serveInput{schema: schema, evidence: make(map[string][]*model.Tuple)}
	var seedTuples []*model.Tuple
	var seeded []string
	for _, e := range ds.Entities {
		ts := e.Instance.Tuples()
		key := ts[0].At(nameIdx).String()
		cut := (len(ts) + 1) / 2
		if rng.Float64() < spec.newFrac {
			cut = 0
		}
		seedTuples = append(seedTuples, ts[:cut]...)
		if cut > 0 {
			seeded = append(seeded, key)
			in.keys = append(in.keys, key)
			in.evidence[key] = append([]*model.Tuple(nil), ts[:cut]...)
		}
		if cut < len(ts) {
			pool[key] = ts[cut:]
		}
	}
	var data, master bytes.Buffer
	if err := csvio.WriteRelation(&data, schema, seedTuples); err != nil {
		return nil, err
	}
	if err := csvio.WriteRelation(&master, ds.Master.Schema(), ds.Master.Tuples()); err != nil {
		return nil, err
	}
	in.batch = &batchInput{
		data: data.Bytes(), master: master.Bytes(),
		rules: []byte(ruledsl.Format(ds.Rules.Rules())),
		rows:  len(seedTuples), entities: len(seeded), nrules: ds.Rules.Len(),
	}

	perRoute := int(spec.perRoute * float64(seconds))
	kinds := make([]opKind, 0, 3*perRoute)
	for k := opKind(0); k < numOpKinds; k++ {
		for i := 0; i < perRoute; i++ {
			kinds = append(kinds, k)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	in.rate = float64(len(kinds)) / float64(seconds)

	keyOf := func(entity int) string {
		return ds.Entities[entity].Instance.Tuple(0).At(nameIdx).String()
	}
	isSeeded := make(map[string]bool, len(seeded))
	for _, k := range seeded {
		isSeeded[k] = true
	}
	// Reads draw from the seeded keys only, so no read can reach a key
	// before its creating append has been answered.
	var readRank, appendRank []string
	for _, ent := range rank {
		k := keyOf(ent)
		if isSeeded[k] {
			readRank = append(readRank, k)
		}
		if len(pool[k]) > 0 {
			appendRank = append(appendRank, k)
		}
	}
	readZipf := rand.NewZipf(rng, spec.zipfS, spec.zipfV, uint64(len(readRank)-1))
	appendZipf := rand.NewZipf(rng, spec.zipfS, spec.zipfV, uint64(len(appendRank)-1))
	created := make(map[string]bool)
	for i, kind := range kinds {
		o := op{Kind: kind, At: float64(i) / in.rate}
		switch kind {
		case opAppend:
			// Walk down the ranking from the drawn key to the first
			// one with tuples left.
			j := int(appendZipf.Uint64())
			for n := 0; n < len(appendRank) && len(pool[appendRank[j]]) == 0; n++ {
				j = (j + 1) % len(appendRank)
			}
			key := appendRank[j]
			if len(pool[key]) == 0 {
				return nil, fmt.Errorf("serve_mix: append pool exhausted after %d ops; raise entities per second", i)
			}
			t := pool[key][0]
			pool[key] = pool[key][1:]
			body, err := appendBody(t)
			if err != nil {
				return nil, err
			}
			o.Key, o.Body = key, body
			if !isSeeded[key] && !created[key] {
				created[key] = true
				in.newKeys++
				in.keys = append(in.keys, key)
			}
			in.evidence[key] = append(in.evidence[key], t)
		case opTopK:
			o.Key = readRank[readZipf.Uint64()]
			o.K = []int{1, 3, 5}[rng.Intn(3)]
		case opGet:
			o.Key = readRank[readZipf.Uint64()]
		}
		o.Conn = connFor(o.Key, spec.conns)
		in.ops = append(in.ops, o)
	}
	return in, nil
}

// connFor pins a key to one connection, so appends to one entity are
// absorbed in schedule order and the final state is deterministic.
func connFor(key string, conns int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(conns))
}

// appendBody renders one tuple as the evidence route's JSON body, with
// attributes in schema order so the bytes depend on the seed alone.
func appendBody(t *model.Tuple) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"tuples":[{`)
	s := t.Schema()
	for a := 0; a < s.Arity(); a++ {
		if a > 0 {
			b.WriteByte(',')
		}
		name, _ := json.Marshal(s.Attr(a))
		b.Write(name)
		b.WriteByte(':')
		v := t.At(a)
		switch v.Kind() {
		case model.Null:
			b.WriteString("null")
		case model.String:
			str, _ := json.Marshal(v.Str())
			b.Write(str)
		case model.Int, model.Float:
			b.WriteString(v.String())
		case model.Bool:
			fmt.Fprintf(&b, "%t", v.Bool())
		default:
			return nil, fmt.Errorf("serve_mix: value %v has no JSON form", v)
		}
	}
	b.WriteString(`}]}`)
	return b.Bytes(), nil
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
