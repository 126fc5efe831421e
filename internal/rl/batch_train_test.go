package rl

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// walkEnv is a deterministic 5-state random-walk MDP used to exercise the
// batched training path: action 1 moves right (+reward at the end), action
// 0 moves left. Multi-step episodes produce plenty of non-terminal
// transitions, so the double-DQN bootstrap path is exercised too.
type walkEnv struct {
	pos int
	rng *mathx.RNG
}

func (w *walkEnv) Reset() []float64 {
	w.pos = 2
	return w.state()
}

func (w *walkEnv) state() []float64 {
	s := make([]float64, 5)
	s[w.pos] = 1
	return s
}

func (w *walkEnv) Step(action int) ([]float64, float64, bool) {
	if action == 1 {
		w.pos++
	} else {
		w.pos--
	}
	// Occasional random slip keeps the state distribution rich.
	if w.rng.Bool(0.1) && w.pos > 0 {
		w.pos--
	}
	switch {
	case w.pos <= 0:
		return w.state(), -0.1, true
	case w.pos >= 4:
		return w.state(), 1, true
	default:
		return w.state(), -0.01, false
	}
}

func (w *walkEnv) NumActions() int { return 2 }
func (w *walkEnv) StateLen() int   { return 5 }

// trainConfig builds a config that exercises dueling + double DQN + PER.
func batchParityConfig() AgentConfig {
	return AgentConfig{
		StateLen:     5,
		NumActions:   2,
		Hidden:       []int{16, 8},
		Dueling:      true,
		DoubleDQN:    true,
		Gamma:        0.95,
		LearningRate: 1e-2,
		BatchSize:    8,
		TrainEvery:   2,
		SyncEvery:    25,
		WarmupSteps:  8,
		GradClip:     5,
		Epsilon:      EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 100},
		Seed:         42,
	}
}

// trainBatchSerial is the reference one-transition-at-a-time train step
// the nn.KernelReference batched path is verified against. It consumes the
// same RNG stream as trainBatch and must produce the same gradients.
func trainBatchSerial(a *Agent) float64 {
	n := a.replay.SampleInto(a.rng, a.sampTrs, a.sampHandles, a.sampWs)
	if n == 0 {
		return 0
	}
	scr, scrTgt := a.online.NewScratch(), a.target.NewScratch()
	dOut := make([]float64, a.cfg.NumActions)
	trs, ws := a.sampTrs[:n], a.sampWs[:n]
	a.online.ZeroGrad()
	totalLoss := 0.0
	for i, tr := range trs {
		target := tr.R
		if !tr.Done {
			var next float64
			if a.cfg.DoubleDQN {
				best := mathx.ArgMax(a.online.ForwardInto(scr, tr.NextS))
				next = a.target.ForwardInto(scrTgt, tr.NextS)[best]
			} else {
				qTgt := a.target.ForwardInto(scrTgt, tr.NextS)
				next = qTgt[mathx.ArgMax(qTgt)]
			}
			target += a.cfg.Gamma * next
		}
		pred := a.online.ForwardInto(scr, tr.S)[tr.A]
		loss, dPred := nn.HuberLoss(pred, target, a.cfg.HuberDelta)
		a.tdErrs[i] = pred - target
		totalLoss += loss * ws[i]
		clear(dOut)
		dOut[tr.A] = dPred * (ws[i] / float64(n))
		a.online.Backward(scr, dOut)
	}
	nn.ClipGradNorm(a.online.Params(), a.cfg.GradClip)
	a.opt.Step(a.online.Params())
	a.replay.UpdatePriorities(a.sampHandles[:n], a.tdErrs[:n])
	return totalLoss / float64(n)
}

// TestBatchedTrainingMatchesSerial: two identically seeded agents fed the
// same experience must stay bit-identical when one trains with the batched
// step and the other with the one-transition-at-a-time reference, checked
// after every step. Periodic target syncs make the double-DQN bootstrap
// read a target that differs from the online network.
func TestBatchedTrainingMatchesSerial(t *testing.T) {
	for _, double := range []bool{true, false} {
		cfg := batchParityConfig()
		cfg.DoubleDQN = double
		mkReplay := func() Replay {
			return NewPrioritizedReplay(PERConfig{Capacity: 1 << 10, Alpha: 0.6, Beta: 0.4, BetaSteps: 1000})
		}
		batched := NewAgent(cfg, mkReplay())
		serial := NewAgent(cfg, mkReplay())

		env := &walkEnv{rng: mathx.NewRNG(9)}
		behave := mathx.NewRNG(7)
		state := env.Reset()
		for i := 0; i < 300; i++ {
			action := behave.Intn(2)
			next, reward, done := env.Step(action)
			tr := Transition{S: state, A: action, R: reward, NextS: next, Done: done}
			batched.AddExperience(tr)
			serial.AddExperience(tr)
			state = next
			if done {
				state = env.Reset()
			}
		}

		for step := 0; step < 80; step++ {
			if step%10 == 0 {
				batched.SyncTarget()
				serial.SyncTarget()
			}
			lb, ls := batched.trainBatch(), trainBatchSerial(serial)
			if lb != ls {
				t.Fatalf("double=%v step %d: loss diverged: batched %v vs serial %v", double, step, lb, ls)
			}
			bp, sp := batched.Online().Params(), serial.Online().Params()
			for pi := range bp {
				for wi := range bp[pi].W {
					if bp[pi].W[wi] != sp[pi].W[wi] {
						t.Fatalf("double=%v step %d: param %d weight %d diverged: batched %v vs serial %v",
							double, step, pi, wi, bp[pi].W[wi], sp[pi].W[wi])
					}
				}
			}
		}
	}
}

// TestTrainStepZeroAlloc: a steady-state batched train step must not
// allocate (PER sampling, batched forwards, backward and Adam included).
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := batchParityConfig()
	agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 1 << 10}))
	env := &walkEnv{rng: mathx.NewRNG(3)}
	Train(agent, env, TrainOptions{Episodes: 30, MaxStepsPerEpisode: 64})

	allocs := testing.AllocsPerRun(50, func() {
		agent.trainBatch()
	})
	if allocs != 0 {
		t.Fatalf("batched train step allocates %v times per run, want 0", allocs)
	}
}
