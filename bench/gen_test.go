package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when someone sleeps or a send "takes" time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestOpenLoopCountsFromDueTime pins the accounting when every
// connection is busy: a request is timed from the instant it was due,
// not from when a connection came free, so the wait a slow reply
// imposes on the requests behind it shows up in their latency.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	const service = 25 * time.Millisecond
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}, {due: 200 * time.Millisecond}}
	send := func(int, *op) (int, []byte, error) {
		clk.Sleep(service)
		return 200, nil, nil
	}
	samples := runOpen(clk, ops, 1, time.Second, send)

	wantLatency := []float64{25, 40, 55, 25} // ms from due to reply
	wantLate := []float64{0, 15, 30, 0}      // ms from due to actually sent
	for i := range samples {
		s := &samples[i]
		if !s.sent {
			t.Fatalf("op %d was not sent", i)
		}
		if got := s.latencyMS(); got != wantLatency[i] {
			t.Errorf("op %d: latency %g ms, want %g", i, got, wantLatency[i])
		}
		if got := s.lateMS(); got != wantLate[i] {
			t.Errorf("op %d: sent %g ms late, want %g", i, got, wantLate[i])
		}
	}
}

// TestOpenLoopLeavesOverdueOpsUnsent: once the step (plus the grace) is
// over, what is still waiting for a connection is not sent at all and
// is reported as such rather than silently dropped from the counts.
func TestOpenLoopLeavesOverdueOpsUnsent(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	send := func(int, *op) (int, []byte, error) {
		clk.Sleep(400 * time.Millisecond)
		return 200, nil, nil
	}
	samples := runOpen(clk, ops, 1, 30*time.Millisecond, send)
	if !samples[0].sent || samples[1].sent || samples[2].sent {
		t.Fatalf("sent = %v %v %v, want only the first", samples[0].sent, samples[1].sent, samples[2].sent)
	}
	if samples[1].op == nil || samples[1].due != 10*time.Millisecond {
		t.Error("an unsent op must still carry its op and due time")
	}
}

func TestClosedLoopSendsEverythingBackToBack(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ops := make([]op, 4)
	send := func(int, *op) (int, []byte, error) {
		clk.Sleep(10 * time.Millisecond)
		return 200, nil, nil
	}
	samples, wall := runClosed(clk, ops, 1, send)
	if wall != 40*time.Millisecond {
		t.Errorf("wall %s, want 40ms", wall)
	}
	for i := range samples {
		if !samples[i].sent || samples[i].lateMS() != 0 || samples[i].latencyMS() != 10 {
			t.Errorf("op %d: sent %v, late %g, latency %g", i, samples[i].sent, samples[i].lateMS(), samples[i].latencyMS())
		}
	}
}
