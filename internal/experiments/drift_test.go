package experiments

import "testing"

// TestDriftLoopRecovers pins the closed-loop claim end to end: under
// the escalating shift schedule the frozen champion's F1 degrades, the
// trainer promotes at least one challenger through the gate, and the
// live model ends the run ahead of the frozen one on data neither has
// seen.
func TestDriftLoopRecovers(t *testing.T) {
	r := run[*DriftResult](t, (*Lab).Drift)
	if len(r.Rounds) != 6 {
		t.Fatalf("rounds = %d, want 6", len(r.Rounds))
	}
	first, last := r.Rounds[0], r.Rounds[len(r.Rounds)-1]
	// Round 0 is the no-drift control: generation 1 serves both roles,
	// so the scores must be identical.
	if first.Generation != 1 || first.Frozen != first.Live {
		t.Fatalf("round 0 not a clean control: gen %d frozen %+v live %+v",
			first.Generation, first.Frozen, first.Live)
	}
	if last.Frozen.F1 >= first.Frozen.F1 {
		t.Errorf("frozen champion did not degrade: round 0 F1 %.3f, final F1 %.3f",
			first.Frozen.F1, last.Frozen.F1)
	}
	if r.Promotions < 1 {
		t.Error("no challenger was ever promoted")
	}
	if last.Generation <= 1 {
		t.Errorf("final round still served generation %d", last.Generation)
	}
	if r.Recovery <= 0 {
		t.Errorf("loop did not recover: frozen final %.3f, live final %.3f",
			r.FrozenFinalF1, r.LiveFinalF1)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}
