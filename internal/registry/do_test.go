package registry

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
)

// TestDoUnloadedTenant: no model, no call.
func TestDoUnloadedTenant(t *testing.T) {
	r := New(Options{})
	r.SetProbes("empty", ProbeSet{}) // creates the slot, loads nothing
	if r.Tenant("empty").Do(func(*Handle) { t.Error("fn called on a tenant with no model") }) {
		t.Fatal("Do = true on a tenant with no model")
	}
}

// TestDoCoherentUnderInstall (for -race): while a swapper alternates two
// models, every fn holds one generation from its first line to its last
// — the same version, generation and detector, a dispatcher that still
// takes work.
func TestDoCoherentUnderInstall(t *testing.T) {
	_, _, snapA := trainSnapshot(t, 113, core.DetectorConfig{})
	_, _, snapB := trainSnapshot(t, 114, core.DetectorConfig{})
	items := testItems(t, 17)[:4]
	r := New(Options{Batching: dispatch.Options{MaxBatch: 8, MaxWait: 100 * time.Microsecond, MaxQueue: 1 << 12}})
	if _, err := r.Load(context.Background(), "taobao", "A", snapA); err != nil {
		t.Fatal(err)
	}
	tn := r.Tenant("taobao")

	stop, swapDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			version, snap := "A", snapA
			if i%2 == 1 {
				version, snap = "B", snapB
			}
			if _, err := r.Load(context.Background(), "taobao", version, snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ok := tn.Do(func(h *Handle) {
					version, gen, det := h.Version, h.Generation, h.Detector
					// The one swapper loads A at odd generations, B at even.
					if (gen%2 == 1) != (version == "A") {
						t.Errorf("generation %d carries version %s", gen, version)
					}
					if _, err := h.Dispatcher().Submit(context.Background(), items); err != nil {
						t.Errorf("generation %d refused work inside fn: %v", gen, err)
					}
					if h.Version != version || h.Generation != gen || h.Detector != det {
						t.Errorf("handle changed under fn: %s/%d, then %s/%d", version, gen, h.Version, h.Generation)
					}
				})
				if !ok {
					t.Error("Do = false mid-run")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapDone
	r.Close()
}

// TestRetiredHandlesAreCollected: nothing but the requests holding it
// keeps a swapped-out generation alive. Twenty swaps under batching,
// each generation given one abandoned waiter and one served Submit;
// afterwards the garbage collector finalizes every retired handle, the
// live one stays, and no goroutine is left behind.
func TestRetiredHandlesAreCollected(t *testing.T) {
	_, _, snap := trainSnapshot(t, 115, core.DetectorConfig{})
	items := testItems(t, 18)[:4]
	r := New(Options{Batching: dispatch.Options{MaxBatch: 8, MaxWait: time.Millisecond}})
	base := runtime.NumGoroutine()
	const swaps = 20
	var finalized atomic.Int64
	for i := 0; i < swaps; i++ {
		if _, err := r.Load(context.Background(), "taobao", fmt.Sprint(i), snap); err != nil {
			t.Fatal(err)
		}
		r.Tenant("taobao").Do(func(h *Handle) {
			abandoned, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := h.Dispatcher().Submit(abandoned, items); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("generation %d: abandoned waiter got %v", h.Generation, err)
			}
			if _, err := h.Dispatcher().Submit(context.Background(), items); err != nil {
				t.Errorf("generation %d refused work: %v", h.Generation, err)
			}
			runtime.SetFinalizer(h, func(*Handle) { finalized.Add(1) })
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for finalized.Load() < swaps-1 || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d retired handles finalized, %d goroutines against %d before",
				finalized.Load(), swaps-1, runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := finalized.Load(); n != swaps-1 {
		t.Fatalf("%d handles finalized, want the %d retired ones", n, swaps-1)
	}
	runtime.KeepAlive(r) // the live handle stays reachable through r
}
