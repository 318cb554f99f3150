package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's view of time, so the scheduler's due-time
// accounting can be tested without waiting.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// sample is the outcome of one scheduled op. Offsets are from the
// phase's start. An op the generator never got to (every connection
// was still busy when its step ended) has sent == false and counts as
// missing the latency limit.
type sample struct {
	op    *op
	conn  int
	sent  bool
	due   time.Duration // when it should have been sent
	start time.Duration // when it was
	end   time.Duration // when the whole response had arrived
	code  int           // HTTP status; 0 on a transport error
	resp  []byte
	err   error

	// filled by verification
	ok           bool // answered 2xx and matched the oracle
	correctItems int  // detect/explain: item verdicts that matched
}

// latencyMS is measured from the instant the op was due, so the wait a
// stall imposes on the requests queued behind it is counted.
func (s *sample) latencyMS() float64 { return float64(s.end-s.due) / float64(time.Millisecond) }

// lateMS is how long after its due time the op was actually sent.
func (s *sample) lateMS() float64 { return float64(s.start-s.due) / float64(time.Millisecond) }

// sendGrace is how far past its step's end a late op may still be sent.
// It keeps a brief stall near the end of a step from turning into
// unsent requests, while bounding how long an overloaded step runs on.
const sendGrace = 250 * time.Millisecond

// sendFunc performs one op on one connection.
type sendFunc func(conn int, o *op) (code int, resp []byte, err error)

// runOpen is the open-loop scheduler: ops are due at fixed offsets
// whatever the system does, conns senders take them in order, and a due
// op waits for a free sender. Ops that could not start within sendGrace
// of the step's end are left unsent — the step is over; they show up in
// gen.sent_share and fail the latency limit.
func runOpen(clk clock, ops []op, conns int, span time.Duration, send sendFunc) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	t0 := clk.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				s := &samples[i]
				s.op, s.conn, s.due = o, c, o.due
				if now := clk.Now().Sub(t0); now < o.due {
					clk.Sleep(o.due - now)
				}
				s.start = clk.Now().Sub(t0)
				if s.start >= span+sendGrace {
					continue
				}
				s.sent = true
				s.code, s.resp, s.err = send(c, o)
				s.end = clk.Now().Sub(t0)
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// runClosed is the closed loop: each of conns senders sends its next op
// as soon as the previous reply is in, so the system sets the pace. It
// returns the samples and the wall time from first send to last reply.
func runClosed(clk clock, ops []op, conns int, send sendFunc) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	t0 := clk.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s := &samples[i]
				s.op, s.conn, s.sent = &ops[i], c, true
				s.start = clk.Now().Sub(t0)
				s.due = s.start
				s.code, s.resp, s.err = send(c, &ops[i])
				s.end = clk.Now().Sub(t0)
			}
		}(c)
	}
	wg.Wait()
	return samples, clk.Now().Sub(t0)
}

// conns is the generator's fixed set of keep-alive connections: one
// http.Transport per sender, capped at one connection, so "connection
// c" means one TCP stream and responses on it are totally ordered.
type conns struct {
	base    string
	clients []*http.Client
}

func newConns(base string, n int) *conns {
	cs := &conns{base: base}
	for i := 0; i < n; i++ {
		cs.clients = append(cs.clients, &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return cs
}

func (cs *conns) close() {
	for _, c := range cs.clients {
		c.CloseIdleConnections()
	}
}

// send posts the op's body and reads the whole response.
func (cs *conns) send(conn int, o *op) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, cs.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.kind == opReload || o.kind == opRetrain {
		req.Header.Set("Authorization", "Bearer "+adminToken)
	}
	resp, err := cs.clients[conn].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
