package evalx

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errlog"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/policies"
	"repro/internal/telemetry"
)

// TestRLArtifactCacheHit asserts the cross-figure RL memoizer's contract:
// a cache hit returns the very artifact trained on the miss, and a
// cache-backed run produces weights byte-identical to a cold (nil-cache)
// run — so figures rendered warm and cold cannot diverge.
func TestRLArtifactCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("RL training integration test in short mode")
	}
	tcfg := telemetry.Default().Scale(0.02)
	jcfg := jobs.Default()
	jcfg.Count = 1000
	log := telemetry.Generate(tcfg)
	trace := jobs.Generate(jcfg)

	cfg := DefaultCVConfig(PresetCI)
	cfg.Parts = 2
	cfg.RLEpisodes = 40 // enough to exercise training, cheap enough for CI

	cold := cfg // Cache == nil: every call trains from scratch
	sCold := TrainSingleSplit(log, trace, cold, 0.5)

	warm := cfg
	warm.Cache = NewCache()
	s1 := TrainSingleSplit(log, trace, warm, 0.5)
	s2 := TrainSingleSplit(log, trace, warm, 0.5)

	// The second warm run must be a hit: the memoizer hands back the same
	// network object, not a retrained copy.
	if s2.Net == nil || s2.Net != s1.Net {
		t.Fatalf("second cached run retrained: net %p vs %p", s2.Net, s1.Net)
	}
	if s2.Forest != s1.Forest {
		t.Fatalf("second cached run retrained the forest: %p vs %p", s2.Forest, s1.Forest)
	}
	if s2.Threshold != s1.Threshold {
		t.Fatalf("cached threshold %v != first run's %v", s2.Threshold, s1.Threshold)
	}

	// Cold and cache-backed training must serialize byte-identically.
	coldJSON, err := json.Marshal(sCold.Net)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.Marshal(s1.Net)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("cold-trained and cache-backed networks are not byte-identical")
	}

	// The kernel version is part of the artifact key: asking the same cache
	// for the reference stream must train a distinct artifact, never serve
	// the fast-stream weights.
	ref := cfg
	ref.Cache = warm.Cache
	ref.Kernel = nn.KernelReference
	s3 := TrainSingleSplit(log, trace, ref, 0.5)
	if s3.Net == s1.Net {
		t.Fatal("reference-kernel request served the fast-kernel artifact")
	}
	// The forest does not depend on the kernel, so it must still hit.
	if s3.Forest != s1.Forest {
		t.Fatal("forest artifact missed on a kernel-only config change")
	}
}

// referenceOraclePoints is the Oracle set's specification: a direct scan
// of every node's ticks, pairing each UE inside [from, to) with the last
// decision tick that precedes it by at least the mitigation overhead and
// at most the prediction window.
func referenceOraclePoints(ticksByNode [][]errlog.Tick, from, to time.Time) map[policies.OracleKey]bool {
	points := map[policies.OracleKey]bool{}
	for _, ticks := range ticksByNode {
		lastDecision := time.Time{}
		haveDecision := false
		for _, tick := range ticks {
			if tick.HasUE() {
				ut := ueEventTime(tick)
				inWin := (from.IsZero() || !ut.Before(from)) && (to.IsZero() || ut.Before(to))
				gap := ut.Sub(lastDecision)
				if haveDecision && inWin && gap >= OracleOverhead && gap <= PredictionWindow {
					points[policies.OracleKey{Node: tick.Node, Time: lastDecision}] = true
				}
				continue
			}
			lastDecision = tick.Time
			haveDecision = true
		}
	}
	return points
}

// TestOraclePointsIndexEquivalence asserts both index-backed Oracle
// queries — the memoized TickArtifacts index and the standalone
// OraclePoints — serve exactly what the reference scan computes, for
// unbounded, half-bounded and fully bounded query windows.
func TestOraclePointsIndexEquivalence(t *testing.T) {
	log := telemetry.Generate(telemetry.Default().Scale(0.04))
	art := (*Cache)(nil).Ticks(log)
	first, last := art.Pre.Span()
	span := last.Sub(first)

	windows := []struct {
		name     string
		from, to time.Time
	}{
		{"unbounded", time.Time{}, time.Time{}},
		{"from-only", first.Add(span / 3), time.Time{}},
		{"to-only", time.Time{}, first.Add(2 * span / 3)},
		{"bounded", first.Add(span / 4), first.Add(3 * span / 4)},
		{"empty", first.Add(span / 2), first.Add(span / 2)},
	}
	for _, w := range windows {
		want := referenceOraclePoints(art.ByNode, w.from, w.to)
		if got := art.OraclePoints(w.from, w.to); !reflect.DeepEqual(got, want) {
			t.Errorf("%s window: memoized oracle points (%d) differ from scan (%d)",
				w.name, len(got), len(want))
		}
		if got := OraclePoints(art.ByNode, w.from, w.to); !reflect.DeepEqual(got, want) {
			t.Errorf("%s window: standalone oracle points (%d) differ from scan (%d)",
				w.name, len(got), len(want))
		}
	}
	// The fixture must actually contain reachable UEs, or the equivalence
	// above is vacuous.
	if len(art.OraclePoints(time.Time{}, time.Time{})) == 0 {
		t.Fatal("fixture has no reachable UEs; oracle index untested")
	}
}

// TestMemoComputesOnce: concurrent gets of one key run compute exactly
// once, and every caller sees its value.
func TestMemoComputesOnce(t *testing.T) {
	var (
		m     memo[int, *int]
		calls atomic.Int32
		wg    sync.WaitGroup
	)
	release := make(chan struct{})
	const n = 32
	got := make([]*int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = m.get(7, func() *int {
				calls.Add(1)
				<-release // hold the computation open while the others arrive
				v := 42
				return &v
			})
		}()
	}
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("compute ran %d times, want 1", c)
	}
	for g, p := range got {
		if p != got[0] || *p != 42 {
			t.Fatalf("caller %d got %p (%v), want the shared value %p", g, p, p, got[0])
		}
	}
	if v := m.get(7, func() *int { t.Fatal("recomputed a memoized key"); return nil }); v != got[0] {
		t.Fatal("later get missed the memoized value")
	}
}

// TestMemoPanicLeavesNoEntry: a panicking compute re-raises to its caller
// and stores nothing, so the next get recomputes.
func TestMemoPanicLeavesNoEntry(t *testing.T) {
	var m memo[string, int]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		m.get("k", func() int { panic("boom") })
		t.Fatal("get returned instead of re-raising the panic")
	}()
	calls := 0
	if v := m.get("k", func() int { calls++; return 5 }); v != 5 || calls != 1 {
		t.Fatalf("get after a panic = %d with %d computes, want 5 with 1", v, calls)
	}
}

// TestMemoPanicWaitersRecompute: callers waiting on a computation that
// panics retry, so one of them recomputes the key instead of hanging or
// reading a zero value.
func TestMemoPanicWaitersRecompute(t *testing.T) {
	var (
		m     memo[int, int]
		calls atomic.Int32
		wg    sync.WaitGroup
	)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		m.get(1, func() int {
			calls.Add(1)
			close(entered)
			<-release
			panic("first compute fails")
		})
	}()
	<-entered
	const n = 8
	got := make([]int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = m.get(1, func() int { calls.Add(1); return 9 })
		}()
	}
	close(release)
	wg.Wait()
	for g, v := range got {
		if v != 9 {
			t.Fatalf("waiter %d got %d, want 9", g, v)
		}
	}
	if c := calls.Load(); c != 2 {
		t.Fatalf("compute ran %d times, want 2 (the failed one and one retry)", c)
	}
}
