package chase

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/rule"
	"repro/internal/vcache"
)

// Shared is the instance-independent groundwork of a specification: the
// rule set validated against one (entity schema, master schema) pair,
// the compiled form-(2) index for that schema, master relation and rule
// set, and the schema-scoped value dictionary every grounding stamped
// from it interns into. Batch pipelines that chase many entity
// instances of the same relation build it once and stamp per-entity
// Groundings out of it, skipping rule re-validation, rule
// classification and the O(‖Σ‖·|Im|) form-(2) compilation on every
// entity — and sharing one dictionary, so a value seen by any entity
// is hashed once per batch, not once per entity.
//
// A Shared is immutable after construction — except the dictionary,
// which is append-only and internally synchronised — and safe for
// concurrent use by any number of goroutines.
type Shared struct {
	rules *rule.Set
	// root is the zero-tuple version (version −1, empty base state)
	// every fresh grounding grows from. It holds the schemas, the
	// form-(2) index, the dictionary and Σ classified once:
	// correlation-shaped form-(1) rules as per-attribute triggers, the
	// rest as the plain form-(1) list Instantiation grounds.
	root *Grounding
}

// NewShared validates the rules against the schemas, precompiles the
// form-(2) index and classifies the form-(1) rules. im may be nil when
// the rule set has no form-(2) rules.
func NewShared(schema *model.Schema, im *model.MasterRelation, rules *rule.Set) (*Shared, error) {
	if schema == nil {
		return nil, fmt.Errorf("chase: shared groundwork needs an entity schema")
	}
	var rm *model.Schema
	if im != nil {
		rm = im.Schema()
	}
	for _, r := range rules.Rules() {
		if err := r.Validate(schema, rm); err != nil {
			return nil, err
		}
	}
	form2, dict := &form2Index{}, model.NewDict()
	if im != nil {
		// The form-(2) index's trigger keys embed dictionary IDs, so the
		// index and the dictionary are built (and memoised) as a pair.
		form2, dict = form2IndexFor(schema, im, rules)
	}
	na := schema.Arity()
	corrs := make([][]corrRule, na)
	var form1 []form1Rule
	for _, r := range rules.Rules() {
		f, ok := r.(*rule.Form1)
		if !ok {
			continue // form-(2) rules live in the shared index
		}
		if cr, ok := compileCorr(schema, f); ok {
			corrs[cr.fromAttr] = append(corrs[cr.fromAttr], cr)
		} else {
			form1 = append(form1, compileForm1(schema, f))
		}
	}
	root := &Grounding{
		im:         im,
		schema:     schema,
		nattr:      na,
		dict:       dict,
		valID:      make([][]uint32, na),
		vals:       make([][]model.Value, na),
		groups:     make([]idGroups, na),
		form1:      form1,
		corrs:      corrs,
		form2:      form2,
		baseOrders: order.NewSet(na, 0),
		baseCounts: make([][]int32, na),
		version:    -1,
	}
	return &Shared{rules: rules, root: root}, nil
}

// Dict returns the groundwork's value dictionary.
func (sh *Shared) Dict() *model.Dict { return sh.root.dict }

// Schema returns the entity schema the groundwork was built for.
func (sh *Shared) Schema() *model.Schema { return sh.root.schema }

// Master returns the master relation (possibly nil).
func (sh *Shared) Master() *model.MasterRelation { return sh.root.im }

// Rules returns the validated rule set.
func (sh *Shared) Rules() *rule.Set { return sh.rules }

// NewGrounding grounds one entity instance on the shared groundwork:
// it grows version 0 from the zero-tuple root, so the per-instance
// Instantiation (pair grounding, value indexing) and base chase run
// while validation, rule classification and the form-(2) index are
// reused. The instance must use the exact schema the Shared was built
// for (pointer identity, as everywhere in package model).
func (sh *Shared) NewGrounding(ie *model.EntityInstance, opts Options) (*Grounding, error) {
	if ie == nil {
		return nil, fmt.Errorf("chase: specification has no entity instance")
	}
	if ie.Schema() != sh.root.schema {
		return nil, fmt.Errorf("chase: instance schema %s is not the shared schema %s",
			ie.Schema().Name(), sh.root.schema.Name())
	}
	var verdicts *vcache.Cache[string]
	if !opts.DisableVerdictCache {
		verdicts = vcache.New[string](opts.VerdictCacheCap)
	}
	return sh.root.grow(ie, !opts.DisableAxioms, verdicts)
}
