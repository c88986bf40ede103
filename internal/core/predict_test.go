package core

import (
	"testing"
	"time"
)

func TestPredictLifetimes(t *testing.T) {
	ctx := newCtx(t, 3)
	// Node a works hard; the others idle.
	drain(t, ctx.Nodes[0], 0.3)

	preds := PredictLifetimes(ctx)
	if len(preds) != 3 {
		t.Fatalf("predictions for %d nodes, want 3", len(preds))
	}
	byID := map[string]LifetimePrediction{}
	for _, p := range preds {
		byID[p.NodeID] = p
		if p.Health <= 0 || p.Health > 1 {
			t.Errorf("node %s health out of range: %v", p.NodeID, p.Health)
		}
		if p.TimeToEndOfLife < 0 {
			t.Errorf("node %s negative time-to-EoL", p.NodeID)
		}
	}
	// The worked node must have a finite, shorter projection than an idle
	// node (which has accumulated almost no damage).
	worked := byID["a"]
	idle := byID["c"]
	if worked.Health >= 1 {
		t.Fatal("worked node shows no damage")
	}
	if worked.TimeToEndOfLife == 0 {
		t.Fatal("worked node already at end of life in a short test")
	}
	if idle.TimeToEndOfLife < worked.TimeToEndOfLife {
		t.Errorf("idle node (%v) projected to die before the worked node (%v)",
			idle.TimeToEndOfLife, worked.TimeToEndOfLife)
	}
}

func TestPredictLifetimesEmptyFleet(t *testing.T) {
	preds := PredictLifetimes(&Context{})
	if len(preds) != 0 {
		t.Errorf("predictions for empty fleet: %v", preds)
	}
}

func TestPredictLifetimesFreshFleetIsFarOut(t *testing.T) {
	ctx := newCtx(t, 1)
	// Let a tiny bit of time pass with no use.
	if err := ctx.Nodes[0].Step(time.Minute, 0, 0); err != nil {
		t.Fatal(err)
	}
	preds := PredictLifetimes(ctx)
	if preds[0].TimeToEndOfLife < 24*time.Hour {
		t.Errorf("fresh battery projected to die within a day: %v", preds[0].TimeToEndOfLife)
	}
}
