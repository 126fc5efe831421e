package guard

import (
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func TestWindowSlidingExpiry(t *testing.T) {
	w := NewWindow(time.Hour)
	w.Add(t0, 2)
	w.Add(t0.Add(10*time.Minute), 3)
	if got := w.Total(t0.Add(10 * time.Minute)); got != 5 {
		t.Fatalf("Total = %v, want 5", got)
	}
	// Just past the span (+ one bucket of quantization slack) the first
	// entry must be gone; well past it, everything is.
	if got := w.Total(t0.Add(time.Hour + 5*time.Minute)); got != 3 {
		t.Fatalf("Total after first expiry = %v, want 3", got)
	}
	if got := w.Total(t0.Add(3 * time.Hour)); got != 0 {
		t.Fatalf("Total after full expiry = %v, want 0", got)
	}
	// A fresh add after full expiry starts a clean window.
	w.Add(t0.Add(4*time.Hour), 7)
	if got := w.Total(t0.Add(4 * time.Hour)); got != 7 {
		t.Fatalf("Total after restart = %v, want 7", got)
	}
}

func TestWindowOutOfOrderAdds(t *testing.T) {
	w := NewWindow(time.Hour)
	w.Add(t0.Add(30*time.Minute), 1)
	// An older — but still in-window — add lands in its own bucket.
	w.Add(t0.Add(20*time.Minute), 1)
	if got := w.Total(t0.Add(30 * time.Minute)); got != 2 {
		t.Fatalf("Total with out-of-order add = %v, want 2", got)
	}
	// An add older than the window is already expired and is dropped.
	w.Add(t0.Add(-2*time.Hour), 100)
	if got := w.Total(t0.Add(30 * time.Minute)); got != 2 {
		t.Fatalf("Total after expired add = %v, want 2", got)
	}
}

// TestWindowTotalIsReadOnly: a consult stamped far ahead of the charge
// stream must not expire the window for the in-order charges after it.
func TestWindowTotalIsReadOnly(t *testing.T) {
	w := NewWindow(time.Hour)
	w.Add(t0, 2)
	if got := w.Total(t0.Add(2 * w.Span())); got != 0 {
		t.Fatalf("Total two spans ahead = %v, want 0", got)
	}
	w.Add(t0.Add(time.Minute), 3)
	if got := w.Total(t0.Add(time.Minute)); got != 5 {
		t.Fatalf("Total after a future consult = %v, want 5 (both charges)", got)
	}
	// A past consult is clamped to the newest charged bucket.
	if got := w.Total(t0.Add(-time.Hour)); got != 5 {
		t.Fatalf("Total in the past = %v, want 5", got)
	}
}

func TestBudgetsNodeCheckpoint(t *testing.T) {
	b := NewBudgets(Config{NodeCheckpointNodeHours: 0.1, NodeWindow: time.Hour})
	cost := 2.0 / 60 // 2 node-minutes
	at := t0
	charges := 0
	for i := 0; i < 10; i++ {
		ok, reason := b.AllowMitigation(7, at, cost)
		if !ok {
			if reason != ReasonNodeBudget {
				t.Fatalf("deny reason = %q, want %q", reason, ReasonNodeBudget)
			}
			break
		}
		b.ChargeMitigation(7, at, cost)
		charges++
		at = at.Add(time.Minute)
	}
	// 0.1 nh at 1/30 nh per mitigation allows exactly 3 charges.
	if charges != 3 {
		t.Fatalf("allowed %d mitigations under a 0.1 nh budget, want 3", charges)
	}
	// Another node is unaffected.
	if ok, _ := b.AllowMitigation(8, at, cost); !ok {
		t.Fatal("node budget leaked across nodes")
	}
	// After the window slides past, the node recovers.
	later := t0.Add(2 * time.Hour)
	if ok, _ := b.AllowMitigation(7, later, cost); !ok {
		t.Fatal("node budget never recovered after the window slid past")
	}
	if got := b.NodeSpend(7, later); got != 0 {
		t.Fatalf("NodeSpend after expiry = %v, want 0", got)
	}
}

func TestBudgetsFleetRate(t *testing.T) {
	b := NewBudgets(Config{FleetMaxMitigations: 2, FleetWindow: time.Hour})
	if ok, _ := b.AllowMitigation(1, t0, 1); !ok {
		t.Fatal("fresh fleet budget denied")
	}
	b.ChargeMitigation(1, t0, 1)
	b.ChargeMitigation(2, t0.Add(time.Minute), 1)
	ok, reason := b.AllowMitigation(3, t0.Add(2*time.Minute), 1)
	if ok || reason != ReasonFleetBudget {
		t.Fatalf("fleet budget at limit: ok=%v reason=%q, want deny/%q", ok, reason, ReasonFleetBudget)
	}
	if got := b.FleetMitigations(t0.Add(2 * time.Minute)); got != 2 {
		t.Fatalf("FleetMitigations = %d, want 2", got)
	}
	if ok, _ := b.AllowMitigation(3, t0.Add(3*time.Hour), 1); !ok {
		t.Fatal("fleet budget never recovered")
	}
}

func TestBudgetsPromotions(t *testing.T) {
	b := NewBudgets(Config{MaxPromotions: 1, PromotionWindow: 24 * time.Hour})
	if ok, _ := b.AllowPromotion(t0); !ok {
		t.Fatal("fresh promotion budget denied")
	}
	b.ChargePromotion(t0)
	ok, reason := b.AllowPromotion(t0.Add(time.Hour))
	if ok || reason != ReasonPromotionBudget {
		t.Fatalf("promotion budget at limit: ok=%v reason=%q", ok, reason)
	}
	if got := b.Promotions(t0.Add(time.Hour)); got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if ok, _ := b.AllowPromotion(t0.Add(26 * time.Hour)); !ok {
		t.Fatal("promotion budget never recovered")
	}
}

func TestBudgetsDisabledAllowEverything(t *testing.T) {
	b := NewBudgets(Config{})
	for i := 0; i < 100; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if ok, _ := b.AllowMitigation(i, at, 1e9); !ok {
			t.Fatal("disabled mitigation budget denied")
		}
		b.ChargeMitigation(i, at, 1e9)
		if ok, _ := b.AllowPromotion(at); !ok {
			t.Fatal("disabled promotion budget denied")
		}
		b.ChargePromotion(at)
	}
}

// TestBudgetsConcurrent exercises the tracker from many goroutines under
// -race; the final fleet count must equal the charges made.
func TestBudgetsConcurrent(t *testing.T) {
	b := NewBudgets(Config{
		NodeCheckpointNodeHours: 1e9, NodeWindow: time.Hour,
		FleetMaxMitigations: 1 << 30, FleetWindow: time.Hour,
	})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				at := t0.Add(time.Duration(i) * time.Second)
				b.AllowMitigation(w, at, 0.5)
				b.ChargeMitigation(w, at, 0.5)
			}
		}(w)
	}
	wg.Wait()
	at := t0.Add(perWorker * time.Second)
	if got := b.FleetMitigations(at); got != workers*perWorker {
		t.Fatalf("FleetMitigations = %d, want %d", got, workers*perWorker)
	}
}
