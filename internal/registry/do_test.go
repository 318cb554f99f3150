package registry

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
)

// TestDoReleasesOnReturnAndPanic: the lease Do takes is back when Do is,
// whether fn returned or panicked — the holder count is 0 again, and a
// handle retired while fn held it closes its dispatcher on the way out.
func TestDoReleasesOnReturnAndPanic(t *testing.T) {
	_, _, snapA := trainSnapshot(t, 111, core.DetectorConfig{})
	_, _, snapB := trainSnapshot(t, 112, core.DetectorConfig{})
	items := testItems(t, 16)
	r := New(Options{Batching: &dispatch.Options{MaxBatch: 4, MaxWait: time.Millisecond}})
	defer r.Close()
	if _, err := r.Load(context.Background(), "taobao", "A", snapA); err != nil {
		t.Fatal(err)
	}
	tn := r.Tenant("taobao")

	var a *Handle
	if !tn.Do(func(h *Handle) {
		a = h
		if n := h.refs.Load(); n != 1 {
			t.Errorf("holders inside fn = %d, want 1", n)
		}
	}) {
		t.Fatal("Do = false on a loaded tenant")
	}
	if n := a.refs.Load(); n != 0 {
		t.Fatalf("holders after Do returned = %d, want 0", n)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("fn's panic did not reach Do's caller")
			}
		}()
		tn.Do(func(h *Handle) {
			// Retire the held handle, so the release Do owes is also
			// the one that has to close it.
			if _, err := r.Load(context.Background(), "taobao", "B", snapB); err != nil {
				t.Error(err)
			}
			if _, err := h.Dispatcher().Submit(context.Background(), items); err != nil {
				t.Errorf("retired-but-held handle refused work: %v", err)
			}
			panic("scorer blew up")
		})
	}()
	if n := a.refs.Load(); n != 0 {
		t.Fatalf("holders after fn panicked = %d, want 0", n)
	}
	if _, err := a.Dispatcher().Submit(context.Background(), items); !dispatch.IsShed(err) {
		t.Fatalf("retired handle's dispatcher still open after the panic: %v", err)
	}
	if v, _, _ := tn.Version(); v != "B" {
		t.Fatalf("live version = %s, want B", v)
	}
}

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
// takes work — and when everyone is done no handle has a holder left.
func TestDoCoherentUnderInstall(t *testing.T) {
	_, _, snapA := trainSnapshot(t, 113, core.DetectorConfig{})
	_, _, snapB := trainSnapshot(t, 114, core.DetectorConfig{})
	items := testItems(t, 17)[:4]
	r := New(Options{Batching: &dispatch.Options{MaxBatch: 8, MaxWait: 100 * time.Microsecond, MaxQueue: 1 << 12}})
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

	var mu sync.Mutex
	seen := map[*Handle]bool{}
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
					mu.Lock()
					seen[h] = true
					mu.Unlock()
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
	for h := range seen {
		if n := h.refs.Load(); n != 0 {
			t.Errorf("generation %d still has %d holders", h.Generation, n)
		}
	}
}
