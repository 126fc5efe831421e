package parx

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		For(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			For(50, workers, func(i int) {
				if i == 17 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: For returned instead of panicking", workers)
		}()
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("default worker count is not GOMAXPROCS")
	}
}

// TestForClaimsInIncreasingOrder pins the claim order For documents:
// fn(i) blocks until fn(i-1) has finished, which only terminates if no
// worker can claim i while i-1 is still unclaimed.
func TestForClaimsInIncreasingOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 64} {
		const n = 200
		finished := make([]chan struct{}, n)
		for i := range finished {
			finished[i] = make(chan struct{})
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			For(n, workers, func(i int) {
				if i > 0 {
					<-finished[i-1]
				}
				close(finished[i])
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: chained For did not complete", workers)
		}
	}
}
