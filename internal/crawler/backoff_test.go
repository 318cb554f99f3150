package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelDuringBackoffReturnsPromptly pins the backoff sleep's
// cancellation path: a worker parked in the retry backoff must observe
// context cancellation immediately, not finish sleeping. With a 10s
// base backoff, a hang here is unmistakable.
func TestCancelDuringBackoffReturnsPromptly(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL, Config{Workers: 1, MaxRetries: 3, RetryBackoff: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Run(ctx, []string{"/x"}, func(resp *Response, enqueue func(string)) error {
			t.Error("handler called for a failing page")
			return nil
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the worker reach the backoff sleep
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("Run returned after %s; cancellation waited out the backoff", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked 5s after cancel; backoff sleep ignores ctx")
	}
}

// TestRetryCountersAtFinalAttemptBoundary pins the off-by-one edges of
// the retry accounting around MaxRetries: failing exactly MaxRetries
// times and then succeeding must land as a fetch with MaxRetries
// retries and zero failures (the last allowed attempt is real, not
// decorative), while one more failure abandons the page after exactly
// MaxRetries backoff sleeps — never MaxRetries+1.
func TestRetryCountersAtFinalAttemptBoundary(t *testing.T) {
	const maxRetries = 3
	cases := []struct {
		name      string
		failures  int64 // 5xx responses before the server recovers
		wantStats Stats
	}{
		{
			name:      "recovers_on_final_allowed_attempt",
			failures:  maxRetries,
			wantStats: Stats{Fetched: 1, Retries: maxRetries, Failures: 0},
		},
		{
			name:      "abandoned_one_past_the_boundary",
			failures:  maxRetries + 1,
			wantStats: Stats{Fetched: 0, Retries: maxRetries, Failures: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/robots.txt" {
					http.NotFound(w, r)
					return
				}
				if hits.Add(1) <= tc.failures {
					http.Error(w, "boom", http.StatusBadGateway)
					return
				}
				fmt.Fprint(w, "ok")
			}))
			defer ts.Close()

			c := New(ts.URL, Config{Workers: 1, MaxRetries: maxRetries, RetryBackoff: time.Millisecond})
			handled := int64(0)
			stats, err := c.Run(context.Background(), []string{"/x"}, func(resp *Response, enqueue func(string)) error {
				atomic.AddInt64(&handled, 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats != tc.wantStats {
				t.Fatalf("stats = %+v, want %+v", stats, tc.wantStats)
			}
			if handled != tc.wantStats.Fetched {
				t.Fatalf("handler ran %d times, want %d", handled, tc.wantStats.Fetched)
			}
			// The server must have been hit exactly once per attempt:
			// 1 + retries when it recovered, 1 + MaxRetries when abandoned.
			wantHits := 1 + tc.wantStats.Retries
			if tc.wantStats.Failures == 1 {
				wantHits = 1 + maxRetries
			}
			if hits.Load() != wantHits {
				t.Fatalf("server hit %d times, want %d", hits.Load(), wantHits)
			}
		})
	}
}
