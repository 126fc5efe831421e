package scenario

import (
	"math"
	"testing"
	"time"

	uerl "repro"
)

// compileSmall compiles a small fixed-shape scenario with the given
// faults.
func compileSmall(t *testing.T, faults ...FaultSpec) *Compiled {
	t.Helper()
	s := validSpec()
	s.Faults = faults
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestCompileSorted(t *testing.T) {
	c := compileSmall(t,
		FaultSpec{Kind: FaultBurst, StartDay: 3, UEs: 8, Trains: 2, CEPrefix: 16},
		FaultSpec{Kind: FaultDelay, StartDay: 1, EndDay: 2, DelayMinutes: 45},
		FaultSpec{Kind: FaultDuplicate, StartDay: 4, EndDay: 5, Fraction: 0.5},
	)
	for i := 1; i < len(c.Events); i++ {
		if c.Events[i].Time.Before(c.Events[i-1].Time) {
			t.Fatalf("event %d out of order after injection", i)
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	mk := func() *Compiled {
		return compileSmall(t,
			FaultSpec{Kind: FaultBurst, StartDay: 3, UEs: 8, Trains: 2, CEPrefix: 16},
			FaultSpec{Kind: FaultRamp, StartDay: 1, EndDay: 4, RateMult: 5},
			FaultSpec{Kind: FaultDuplicate, StartDay: 4, EndDay: 6, Fraction: 0.3},
		)
	}
	a, b := mk(), mk()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event count differs: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs across identical compiles", i)
		}
	}
	if a.Duplicated != b.Duplicated || a.InjectedUEs != b.InjectedUEs {
		t.Fatal("injection counters differ across identical compiles")
	}
}

func TestBurstInjection(t *testing.T) {
	c := compileSmall(t,
		FaultSpec{Kind: FaultBurst, StartDay: 5, FirstNode: 2, Nodes: 4,
			UEs: 6, Trains: 2, TrainGapHours: 12, CEPrefix: 10},
	)
	if c.InjectedUEs != 12 {
		t.Fatalf("injected %d UEs, want 12", c.InjectedUEs)
	}
	if len(c.AttackWindows) != 2 {
		t.Fatalf("got %d attack windows, want 2", len(c.AttackWindows))
	}
	trainStart := c.Start.Add(day(5))
	if got := c.AttackWindows[0].Start; !got.Equal(trainStart.Add(-10 * time.Second)) {
		t.Fatalf("attack window starts %v, want the CE prefix start", got)
	}
	// All injected UEs land inside the node range and inside a window.
	for _, e := range c.Events {
		if e.Type == uerl.UncorrectedError && e.DIMM == -1 {
			if e.Node < 2 || e.Node >= 6 {
				t.Fatalf("injected UE on node %d outside range [2,6)", e.Node)
			}
			if !c.InAttack(e.Time) {
				t.Fatalf("injected UE at %v outside every attack window", e.Time)
			}
		}
	}
}

// A node count large enough that FirstNode+Nodes overflows must still
// clamp to the fleet: the spec validates, so every injected UE has to
// land on a real node.
func TestBurstNodeRangeClampsWithoutOverflow(t *testing.T) {
	s := validSpec()
	s.Fleet.Nodes = 8
	s.Faults = []FaultSpec{{Kind: FaultBurst, StartDay: 5, FirstNode: 1, Nodes: math.MaxInt, UEs: 20}}
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.InjectedUEs != 20 {
		t.Fatalf("injected %d UEs, want 20", c.InjectedUEs)
	}
	for _, e := range c.Events {
		if e.Type == uerl.UncorrectedError && e.DIMM == -1 && (e.Node < 1 || e.Node >= 8) {
			t.Fatalf("injected UE on node %d outside the clamped range [1,8)", e.Node)
		}
	}
}

func TestBlackoutDropsRange(t *testing.T) {
	s := validSpec()
	base, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	c := compileSmall(t, FaultSpec{Kind: FaultBlackout, StartDay: 2, EndDay: 8, FirstNode: 0, Nodes: 8})
	if c.Dropped == 0 {
		t.Fatal("blackout dropped nothing")
	}
	if len(c.Events)+c.Dropped != len(base.Events) {
		t.Fatalf("dropped %d but event count went %d -> %d", c.Dropped, len(base.Events), len(c.Events))
	}
	start, end := c.Start.Add(day(2)), c.Start.Add(day(8))
	for _, e := range c.Events {
		if e.Node < 8 && !e.Time.Before(start) && e.Time.Before(end) {
			t.Fatalf("node %d event at %v survived the blackout", e.Node, e.Time)
		}
	}
}

func TestRampScalesCounts(t *testing.T) {
	s := validSpec()
	base, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	c := compileSmall(t, FaultSpec{Kind: FaultRamp, StartDay: 0, EndDay: 10, RateMult: 10})
	baseTotal, rampTotal := 0, 0
	for _, e := range base.Events {
		if e.Type == uerl.CorrectedError {
			baseTotal += e.Count
		}
	}
	for _, e := range c.Events {
		if e.Type == uerl.CorrectedError {
			rampTotal += e.Count
		}
	}
	if rampTotal <= baseTotal {
		t.Fatalf("ramp did not raise CE counts: %d vs %d", rampTotal, baseTotal)
	}
}

func TestDelayShiftsWithinWindow(t *testing.T) {
	c := compileSmall(t, FaultSpec{Kind: FaultDelay, StartDay: 1, EndDay: 3, DelayMinutes: 30})
	if c.Delayed == 0 {
		t.Fatal("delay shifted nothing")
	}
	// The stream stays sorted even with shifted timestamps.
	for i := 1; i < len(c.Events); i++ {
		if c.Events[i].Time.Before(c.Events[i-1].Time) {
			t.Fatalf("event %d out of order after delay", i)
		}
	}
}

func TestDuplicateRedelivers(t *testing.T) {
	c := compileSmall(t, FaultSpec{Kind: FaultDuplicate, StartDay: 0, EndDay: 10, Fraction: 1})
	if c.Duplicated == 0 {
		t.Fatal("duplicate re-delivered nothing")
	}
	s := validSpec()
	base, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != len(base.Events)+c.Duplicated {
		t.Fatalf("duplicated %d but event count went %d -> %d", c.Duplicated, len(base.Events), len(c.Events))
	}
}

func TestCostPhases(t *testing.T) {
	s := validSpec()
	s.Workload = WorkloadSpec{
		CostNodeHours: 50,
		Phases:        []CostPhase{{AtDay: 3, CostNodeHours: 200}, {AtDay: 7, CostNodeHours: 25}},
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at   float64
		want float64
	}{{0, 50}, {2.9, 50}, {3, 200}, {6.5, 200}, {7, 25}, {9.9, 25}} {
		if got := c.Cost(0, c.Start.Add(day(tc.at))); got != tc.want {
			t.Fatalf("cost at day %v = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestDriftPhasesChangeStream(t *testing.T) {
	plain := validSpec()
	a, err := Compile(plain)
	if err != nil {
		t.Fatal(err)
	}
	drifted := validSpec()
	drifted.Drift = []DriftPhase{{AtDay: 5, Overlay: OverlaySpec{CERateMult: 8, CEBurstMult: 4}}}
	b, err := Compile(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) <= len(a.Events) {
		t.Fatalf("drift phase at 8x CE rate did not grow the stream: %d vs %d", len(b.Events), len(a.Events))
	}
}
