package pipeline

// The batch worker pool. An EntitySource yields completed entities one
// at a time — er.EntityStream over a csvio.TupleIterator is the
// canonical chain, SliceSource replays a materialized batch — and
// Stream feeds them to the workers, pulling from the source only as
// workers free up. Backpressure reaches all the way back to the source,
// so a relation of any length grounds in memory proportional to the
// worker pool, never to row count. Results reach the sink in source
// order whatever order the workers finish in.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/model"
)

// EntitySource is a pull-based stream of completed entity instances;
// Next returns io.EOF after the last one. er.EntityStream satisfies it.
type EntitySource interface {
	Next() (*model.EntityInstance, error)
}

// SliceSource replays a slice of entities as an EntitySource.
type SliceSource []*model.EntityInstance

// Next returns the next entity of the slice, or io.EOF after the last.
func (s *SliceSource) Next() (*model.EntityInstance, error) {
	if len(*s) == 0 {
		return nil, io.EOF
	}
	ie := (*s)[0]
	*s = (*s)[1:]
	return ie, nil
}

// job pairs an entity with its source-order index.
type job struct {
	i  int
	ie *model.EntityInstance
}

// Stream processes entities as the source yields them on the
// schema-level groundwork shared (cfg.Master and cfg.Rules are ignored
// in favour of the groundwork's own), delivering results to sink in
// source order as soon as they and all their predecessors finish.
// Every entity must use the groundwork's schema; the first that does
// not stops the run with an error. sink runs on the calling goroutine;
// returning an error stops the run early and is returned from Stream.
// A source error likewise stops the run. After a stop, in-flight
// entities finish but are not delivered.
//
// The invariant that bounds memory: issued − delivered ≤ 2·workers at
// all times, counting queued jobs, entities being worked, and results
// not yet handed to sink — so neither the jobs channel, the results
// channel, nor the reorder map can grow past that window, and the
// source is only pulled when there is room.
func Stream(shared *chase.Shared, src EntitySource, cfg Config, sink func(Result) error) (Summary, error) {
	start := time.Now()
	var sum Summary
	schema := shared.Schema()
	w := cfg.workers()
	window := 2 * w

	jobs := make(chan job, window)
	results := make(chan Result, window)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- runEntity(j.i, j.ie, shared, &cfg)
			}
		}()
	}

	issued, delivered := 0, 0
	pending := make(map[int]Result, window)
	finish := func(err error) (Summary, error) {
		// Retire the workers before returning; on an early stop the
		// in-flight entities finish into the buffered results channel
		// (capacity ≥ issued − delivered, so no worker ever blocks) but
		// are not delivered.
		close(jobs)
		wg.Wait()
		sum.Elapsed = time.Since(start)
		return sum, err
	}
	// deliver drains completed results — blocking for at least one when
	// must is set — and hands them to sink in source order.
	deliver := func(must bool) error {
		for issued > delivered {
			var r Result
			if must {
				r = <-results
				must = false
			} else {
				select {
				case r = <-results:
				default:
					return nil
				}
			}
			pending[r.Index] = r
			for {
				next, ok := pending[delivered]
				if !ok {
					break
				}
				delete(pending, delivered)
				delivered++
				sum.add(&next, schema.Arity())
				if err := sink(next); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for {
		ie, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return finish(err)
		}
		if ie.Schema() != schema {
			return finish(fmt.Errorf("pipeline: entity %d uses schema %s, batch uses %s",
				issued, ie.Schema().Name(), schema.Name()))
		}
		for issued-delivered >= window {
			if err := deliver(true); err != nil {
				return finish(err)
			}
		}
		jobs <- job{issued, ie}
		issued++
		if err := deliver(false); err != nil {
			return finish(err)
		}
	}
	for issued > delivered {
		if err := deliver(true); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}
