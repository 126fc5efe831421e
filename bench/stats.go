package main

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// median returns the median of xs (0 for none); xs is left unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hist is a latency histogram with about 1.6 % resolution: values
// below 64 ns have a bucket each, larger ones 64 buckets per power of
// two. Recording allocates nothing, so a histogram can sit inside a
// phase whose allocations are measured.
type hist struct {
	counts [64 * 59]uint64
	n      uint64
	sum    int64
}

func (h *hist) add(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.n++
	h.sum += ns
	if ns < 64 {
		h.counts[ns]++
		return
	}
	o := bits.Len64(uint64(ns)) - 1 // 6..62
	h.counts[64+(o-6)*64+int(uint64(ns)>>(o-6)&63)]++
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank q-quantile in microseconds, taken
// at the middle of its bucket (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i) / 1e3
		}
	}
	return bucketMid(len(h.counts)-1) / 1e3
}

func bucketMid(i int) float64 {
	if i < 64 {
		return float64(i)
	}
	o := (i-64)/64 + 6
	lo := float64(uint64(64+(i-64)%64) << (o - 6))
	return lo + float64(uint64(1)<<(o-6))/2
}

// meanNs is the mean in nanoseconds (0 for an empty histogram).
func (h *hist) meanNs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// memDelta measures the heap allocation of a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns the bytes allocated, the objects allocated and the GC
// cycles completed since startMem.
func (m *memDelta) stop() (bytes, mallocs uint64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc, after.Mallocs - m.before.Mallocs, after.NumGC - m.before.NumGC
}

// layers holds one pprof label context per layer, so that a traced run
// with --cpuprofile attributes its samples to the layer it was calling.
// Setting the goroutine's labels from a prepared context allocates
// nothing, so traced call sites can switch layer per call. Only the
// benchmark's main goroutine switches layers; goroutines a layer starts
// inherit its label.
var (
	layers   = map[string]context.Context{}
	curLayer = context.Background()
)

// labelCtx returns layer's label context.
func labelCtx(layer string) context.Context {
	ctx, ok := layers[layer]
	if !ok {
		ctx = pprof.WithLabels(context.Background(), pprof.Labels("layer", layer))
		layers[layer] = ctx
	}
	return ctx
}

// enter labels the calling goroutine with layer and returns the label
// context to restore with leave.
func enter(layer string) context.Context {
	ctx := labelCtx(layer)
	prev := curLayer
	curLayer = ctx
	pprof.SetGoroutineLabels(ctx)
	return prev
}

func leave(prev context.Context) {
	curLayer = prev
	pprof.SetGoroutineLabels(prev)
}

// timed runs f under layer's profile label and returns its duration.
func timed(layer string, f func()) time.Duration {
	prev := enter(layer)
	start := time.Now()
	f()
	d := time.Since(start)
	leave(prev)
	return d
}
