package rl

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// fastConfig is batchParityConfig under the nn.KernelFast stream.
func fastConfig() AgentConfig {
	cfg := batchParityConfig()
	cfg.Kernel = nn.KernelFast
	return cfg
}

// marshalWeights serializes the agent's online network for byte comparison.
func marshalWeights(t *testing.T, a *Agent) []byte {
	t.Helper()
	b, err := json.Marshal(a.Online())
	if err != nil {
		t.Fatalf("marshal online net: %v", err)
	}
	return b
}

// The v2 pins: SHA-256 of the marshalled online weights after a fixed
// 40-episode run, computed at the commit before the train step went serial.
// They must not move unless the nn.KernelFast stream is deliberately
// re-versioned. BatchSize 8 is one chunk per minibatch; BatchSize 20 is
// three (8, 8, 4), so the chunk-index-ordered gradient reduction and the
// ragged last chunk are pinned too. The hashes assume Go's default amd64
// code generation (no compiler FMA fusion), the same as the scenario
// goldens.
var (
	trainPins = map[int]string{
		8:  "f0425ca6f8fa919af5b13f56f55b5e434bbc8cb2ceb419f8fa3090ffd6d13a66",
		20: "785fe8525ba687d20c977c98b213018ca247cc9ab08840899163469349899012",
	}
	trainVecPins = map[int]string{
		8:  "46e6010b368622e29b8878c567d07348c26d0f846f233921cf1b0b304036286a",
		20: "86a80dcc199f23ac88702ac6328840f891b7ee64851199356c575577a7cb0ad0",
	}
)

// workerCounts is the GOMAXPROCS sweep the determinism tests run under.
func workerCounts() []int { return []int{1, 2, 4} }

// withWorkers runs fn with GOMAXPROCS set to workers and restores it after.
func withWorkers(workers int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	fn()
}

// fastAgent is a KernelFast agent with the PER buffer the pins were taken on.
func fastAgent(batch int) *Agent {
	cfg := fastConfig()
	cfg.BatchSize = batch
	return NewAgent(cfg, NewPrioritizedReplay(PERConfig{
		Capacity: 1 << 10, Alpha: 0.6, Beta: 0.4, BetaSteps: 1000, FastPow: true,
	}))
}

// weightsHash is the hex SHA-256 of the agent's marshalled online net.
func weightsHash(t *testing.T, a *Agent) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(marshalWeights(t, a)))
}

// TestChunkedTrainingBitIdenticalAcrossWorkers: under nn.KernelFast, Train
// (walkEnv seed 9, 40 episodes) must produce the pinned weights for every
// GOMAXPROCS setting, so neither the commit nor the scheduler's worker
// count can move the chunked stream.
func TestChunkedTrainingBitIdenticalAcrossWorkers(t *testing.T) {
	opts := TrainOptions{Episodes: 40, MaxStepsPerEpisode: 64}
	for _, batch := range []int{8, 20} {
		for _, workers := range workerCounts() {
			withWorkers(workers, func() {
				agent := fastAgent(batch)
				res := Train(agent, &walkEnv{rng: mathx.NewRNG(9)}, opts)
				if res.Episodes != 40 {
					t.Fatalf("batch=%d workers=%d: Train ran %d episodes, want 40", batch, workers, res.Episodes)
				}
				if got := weightsHash(t, agent); got != trainPins[batch] {
					t.Errorf("batch=%d workers=%d: weights hash %s, want %s (the KernelFast stream moved)",
						batch, workers, got, trainPins[batch])
				}
			})
		}
	}
}

// TestTrainVecBitIdenticalAcrossWorkers: the vectorized trainer (seeds
// 100-103, 40 episodes) must produce the pinned weights and identical
// episode rewards and step counts for every GOMAXPROCS setting.
func TestTrainVecBitIdenticalAcrossWorkers(t *testing.T) {
	opts := TrainOptions{Episodes: 40, MaxStepsPerEpisode: 64}
	for _, batch := range []int{8, 20} {
		var want TrainResult
		for i, workers := range workerCounts() {
			withWorkers(workers, func() {
				agent := fastAgent(batch)
				envs := make([]Environment, DefaultEnvFanout)
				for j := range envs {
					envs[j] = &walkEnv{rng: mathx.NewRNG(100 + int64(j))}
				}
				res := TrainVec(agent, envs, opts)
				if res.Episodes != 40 {
					t.Fatalf("batch=%d workers=%d: TrainVec ran %d episodes, want 40", batch, workers, res.Episodes)
				}
				if len(res.EpisodeRewards) != 40 {
					t.Fatalf("batch=%d workers=%d: EpisodeRewards has %d entries, want 40", batch, workers, len(res.EpisodeRewards))
				}
				if got := weightsHash(t, agent); got != trainVecPins[batch] {
					t.Errorf("batch=%d workers=%d: weights hash %s, want %s (the KernelFast stream moved)",
						batch, workers, got, trainVecPins[batch])
				}
				if i == 0 {
					want = res
					return
				}
				if res.Steps != want.Steps || res.TotalReward != want.TotalReward {
					t.Fatalf("batch=%d workers=%d: result diverged: steps %d vs %d, reward %v vs %v",
						batch, workers, res.Steps, want.Steps, res.TotalReward, want.TotalReward)
				}
				for k := range res.EpisodeRewards {
					if res.EpisodeRewards[k] != want.EpisodeRewards[k] {
						t.Fatalf("batch=%d workers=%d: episode %d reward diverged", batch, workers, k)
					}
				}
			})
		}
	}
}

// TestChunkedTrainLearns: sanity that the v2 stream still solves the walk
// MDP (the determinism tests alone would pass for a broken learner).
func TestChunkedTrainLearns(t *testing.T) {
	cfg := fastConfig()
	agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 1 << 10, FastPow: true}))
	env := &walkEnv{rng: mathx.NewRNG(5)}
	Train(agent, env, TrainOptions{Episodes: 150, MaxStepsPerEpisode: 64})
	// A trained agent should walk right from the start state.
	state := []float64{0, 0, 1, 0, 0}
	if got := agent.Greedy(state); got != 1 {
		t.Fatalf("greedy action from start = %d, want 1 (right)", got)
	}
}

// TestChunkedTrainStepZeroAlloc: the chunked train step must stay
// allocation-free in steady state.
func TestChunkedTrainStepZeroAlloc(t *testing.T) {
	cfg := fastConfig()
	agent := NewAgent(cfg, NewPrioritizedReplay(PERConfig{Capacity: 1 << 10, FastPow: true}))
	env := &walkEnv{rng: mathx.NewRNG(3)}
	Train(agent, env, TrainOptions{Episodes: 30, MaxStepsPerEpisode: 64})

	allocs := testing.AllocsPerRun(50, func() {
		agent.trainBatch()
	})
	if allocs != 0 {
		t.Fatalf("chunked train step allocates %v times per run, want 0", allocs)
	}
}
