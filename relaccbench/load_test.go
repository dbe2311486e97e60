package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a request
// "takes" time, so the schedule arithmetic is exact.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestOpenLoopTimesFromScheduledSend: three requests due 10 ms apart on
// one connection, each taking 50 ms. The second and third wait behind
// the first; their latency must include that wait (from the scheduled
// send), not just their own 50 ms.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ops := []op{{At: 0}, {At: 0.010}, {At: 0.020}}
	samples := openLoop(ops, 1, clk, start, func(conn int, o *op) (int, error) {
		clk.advance(50 * time.Millisecond)
		return 200, nil
	})
	wantLatency := []time.Duration{50 * time.Millisecond, 90 * time.Millisecond, 130 * time.Millisecond}
	wantLag := []time.Duration{0, 40 * time.Millisecond, 80 * time.Millisecond}
	for i, s := range samples {
		if due := start.Add(time.Duration(ops[i].At * float64(time.Second))); !s.scheduled.Equal(due) {
			t.Errorf("op %d scheduled at %v, want %v", i, s.scheduled, due)
		}
		if s.latency() != wantLatency[i] {
			t.Errorf("op %d latency %v, want %v (from the scheduled send)", i, s.latency(), wantLatency[i])
		}
		if s.lag() != wantLag[i] {
			t.Errorf("op %d lag %v, want %v", i, s.lag(), wantLag[i])
		}
		if !s.ok() {
			t.Errorf("op %d not ok", i)
		}
	}
}

// TestOpenLoopRoutesByConnection: every op runs on the connection it
// was assigned, in schedule order within that connection.
func TestOpenLoopRoutesByConnection(t *testing.T) {
	var mu sync.Mutex
	seen := map[int][]int{}
	ops := []op{{At: 0, Conn: 0, K: 0}, {At: 0, Conn: 1, K: 1}, {At: 0.001, Conn: 0, K: 2}, {At: 0.002, Conn: 1, K: 3}}
	samples := openLoop(ops, 2, realClock{}, time.Now(), func(conn int, o *op) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		seen[conn] = append(seen[conn], o.K)
		return 204, nil
	})
	if len(samples) != len(ops) {
		t.Fatalf("%d samples for %d ops", len(samples), len(ops))
	}
	if got := seen[0]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("connection 0 ran %v, want [0 2]", got)
	}
	if got := seen[1]; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("connection 1 ran %v, want [1 3]", got)
	}
}
