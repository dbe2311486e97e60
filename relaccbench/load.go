package main

import (
	"sync"
	"time"
)

// sample is one open-loop request's timing.
type sample struct {
	scheduled time.Time // when the schedule said to send it
	sent      time.Time // when it actually went out
	done      time.Time // when the whole reply had arrived
	status    int       // HTTP status; 0 on a transport error
	err       error
}

// latency is the time from the scheduled send to the reply, so a stall
// is charged to every request queued behind it, not just the slow one.
func (s sample) latency() time.Duration { return s.done.Sub(s.scheduled) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.scheduled) }

// ok reports a 2xx reply.
func (s sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// clock lets tests drive the generator without real sleeps.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends ops on their schedule: op i is due at start + ops[i].At.
// Each connection sends its own ops in schedule order, one at a time
// (HTTP/1.1 without pipelining), so a request is sent at its due time
// or, if its connection is still busy, as soon as the previous reply
// arrives. do performs one request and returns its status. The samples
// come back indexed like ops.
func openLoop(ops []op, conns int, clk clock, start time.Time, do func(conn int, o *op) (int, error)) []sample {
	out := make([]sample, len(ops))
	byConn := make([][]int, conns)
	for i := range ops {
		byConn[ops[i].Conn] = append(byConn[ops[i].Conn], i)
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range byConn[c] {
				due := start.Add(time.Duration(ops[i].At * float64(time.Second)))
				clk.SleepUntil(due)
				s := sample{scheduled: due, sent: clk.Now()}
				s.status, s.err = do(c, &ops[i])
				s.done = clk.Now()
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	return out
}
