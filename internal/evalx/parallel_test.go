package evalx

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errlog"
	"repro/internal/features"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/parx"
	"repro/internal/policies"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

// synthWorld builds a deterministic many-node tick world with a mix of CE
// streams, boots, warnings and UEs so the parallel replay exercises every
// accounting path.
func synthWorld(seed int64, nodes int) [][]errlog.Tick {
	rng := mathx.NewRNG(seed)
	byNode := make([][]errlog.Tick, nodes)
	for n := 0; n < nodes; n++ {
		nrng := rng.Fork()
		var ticks []errlog.Tick
		at := time.Duration(nrng.Intn(120)) * time.Minute
		events := 20 + nrng.Intn(60)
		for i := 0; i < events; i++ {
			ty := errlog.CE
			switch {
			case nrng.Bool(0.03):
				ty = errlog.UE
			case nrng.Bool(0.05):
				ty = errlog.Boot
			case nrng.Bool(0.05):
				ty = errlog.UEWarning
			}
			tk := errlog.Tick{Time: t0.Add(at), Node: n}
			tk.Events = append(tk.Events, errlog.Event{
				Time: t0.Add(at), Node: n, Type: ty, Count: 1 + nrng.Intn(5),
				Rank: nrng.Intn(4), Bank: nrng.Intn(16), Row: nrng.Intn(4096), Col: nrng.Intn(1024),
				DIMM: nrng.Intn(8),
			})
			ticks = append(ticks, tk)
			at += time.Duration(10+nrng.Intn(600)) * time.Minute
		}
		byNode[n] = ticks
	}
	return byNode
}

func synthTrace(seed int64) *jobs.Sampler {
	cfg := jobs.Default()
	cfg.Seed = seed
	cfg.Count = 200
	return jobs.NewSampler(jobs.Generate(cfg))
}

// TestReplayParallelDeterministic: Replay with the worker pool must produce
// byte-identical Results to the serial path, for every policy family,
// across seeds, worker counts and GOMAXPROCS values. Result is a comparable
// struct, so == is a full bitwise comparison of every accumulated float.
func TestReplayParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, seed := range []int64{1, 7, 1234} {
		byNode := synthWorld(seed, 24)
		sampler := synthTrace(seed)
		qnet := nn.New(nn.Config{Inputs: features.Dim, Hidden: []int{16, 8},
			Outputs: 2, Dueling: true, Seed: seed})
		deciders := []policies.Decider{
			policies.Never{},
			policies.Always{},
			&policies.FixedProb{Feature: 1, Bound: 20},
			&policies.RL{Policy: rl.NewSharedQPolicy(qnet)},
		}
		for _, d := range deciders {
			cfg := replayCfg()
			cfg.JobSeed = seed
			cfg.Parallelism = 1
			serial := Replay(d, byNode, sampler, cfg)

			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{0, 2, 3, 8} {
					cfg.Parallelism = workers
					got := Replay(d, byNode, sampler, cfg)
					if got != serial {
						t.Fatalf("seed %d policy %s procs %d workers %d: parallel result diverged\n got %+v\nwant %+v",
							seed, d.Name(), procs, workers, got, serial)
					}
				}
			}
		}
	}
}

// TestReplayParallelWindowed: determinism must also hold with accounting
// windows and cost overrides active (the Table 2 paths).
func TestReplayParallelWindowed(t *testing.T) {
	byNode := synthWorld(5, 16)
	sampler := synthTrace(5)
	cfg := replayCfg()
	cfg.From = t0.Add(24 * time.Hour)
	cfg.To = t0.Add(10 * 24 * time.Hour)
	cfg.CostOverride = func(rng *mathx.RNG) float64 { return rng.Float64() * 5000 }

	cfg.Parallelism = 1
	serial := Replay(policies.Always{}, byNode, sampler, cfg)
	cfg.Parallelism = 8
	parallel := Replay(policies.Always{}, byNode, sampler, cfg)
	if serial != parallel {
		t.Fatalf("windowed parallel replay diverged:\n got %+v\nwant %+v", parallel, serial)
	}
}

// TestTrainRLParallelCandidatesDeterministic: the parallel hyperparameter
// search (PresetDefault trains 3 candidates concurrently) must select the
// same model — and therefore produce identical evaluation results — for
// any GOMAXPROCS value.
func TestTrainRLParallelCandidatesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	tcfg := telemetry.Default().Scale(0.02)
	jcfg := jobs.Default()
	jcfg.Count = 1000
	trace := jobs.Generate(jcfg)
	cfg := DefaultCVConfig(PresetDefault)
	cfg.Parts = 2
	cfg.RLEpisodes = 20 // keep the 3-candidate search fast

	runtime.GOMAXPROCS(1)
	a := RunCV(telemetry.Generate(tcfg), trace, cfg)
	runtime.GOMAXPROCS(4)
	b := RunCV(telemetry.Generate(tcfg), trace, cfg)

	for i := range a.Totals {
		// Training cost is wallclock-measured, so compare the rest.
		if a.Totals[i].Policy != b.Totals[i].Policy ||
			a.Totals[i].UECost != b.Totals[i].UECost ||
			a.Totals[i].MitigationCost != b.Totals[i].MitigationCost ||
			a.Totals[i].Metrics != b.Totals[i].Metrics {
			t.Fatalf("policy %s not deterministic across GOMAXPROCS:\n got %+v\nwant %+v",
				a.Totals[i].Policy, b.Totals[i], a.Totals[i])
		}
	}
}

// TestReplayUnsafeDeciderFallsBackToSerial: a stateful decider that does
// not declare itself concurrency-safe must still replay correctly (the
// engine serializes it) — and produce the same result as an explicit
// serial run.
func TestReplayUnsafeDeciderFallsBackToSerial(t *testing.T) {
	byNode := synthWorld(11, 12)
	sampler := synthTrace(11)

	cfg := replayCfg()
	cfg.Parallelism = 8
	d := &statefulDecider{k: 7}
	got := Replay(d, byNode, sampler, cfg)
	if d.overlapped.Load() {
		t.Fatal("a decider that is not concurrency-safe was called concurrently")
	}
	cfg.Parallelism = 1
	want := Replay(&statefulDecider{k: 7}, byNode, sampler, cfg)
	if got != want {
		t.Fatalf("stateful decider replay diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestTrainSlotsBoundNestedFanOut: however the fan-outs nest (figures over
// costs over splits over candidates), at most parx.Workers(0) bodies hold
// a training slot at once, and every body runs.
func TestTrainSlotsBoundNestedFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var (
			pool           slotPool
			inFlight, peak atomic.Int32
			ran            atomic.Int32
		)
		parx.For(3, 8, func(int) {
			parx.For(3, 8, func(int) {
				parx.For(4, 8, func(int) {
					pool.acquire()
					defer pool.release()
					n := inFlight.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					time.Sleep(time.Millisecond)
					inFlight.Add(-1)
					ran.Add(1)
				})
			})
		})
		if got := ran.Load(); got != 36 {
			t.Fatalf("GOMAXPROCS=%d: %d bodies ran, want 36", procs, got)
		}
		if p := peak.Load(); int(p) > parx.Workers(0) {
			t.Fatalf("GOMAXPROCS=%d: %d bodies held a slot at once, limit %d", procs, p, parx.Workers(0))
		}
	}
}
