package evalx

import (
	"sort"
	"sync"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/policies"
	"repro/internal/rf"
	"repro/internal/rl"
)

// Cache memoizes the evaluation artifacts that are invariant across figure
// runs, so regenerating the full §5 suite reuses work instead of
// recomputing it:
//
//   - the preprocessed / merged / per-node-grouped tick pipeline and the
//     flat sorted UE-time index, keyed by log identity;
//   - the node-weighted job sampler, keyed by trace identity;
//   - per-split RF training sets and trained forests, keyed by
//     (log, train boundary, forest-config hash) — invariant across
//     mitigation costs, which is why Figure 3's three cost points share one
//     forest per split;
//   - SC20-RF optimal thresholds, keyed additionally by the replay
//     environment and window (they do depend on the mitigation cost);
//   - trained RL policy artifacts, keyed by everything the training
//     trajectory depends on (log, trace, env config, seed, preset, split
//     geometry, kernel version) — Figure 3's cost sweep, Figure 4 and
//     Table 2 previously retrained byte-identical agents per figure.
//
// Logs and traces handed to a cached run must not be mutated afterwards;
// keys are pointer identities. Every artifact is computed once: concurrent
// callers of a key (Figure 3's cost fan-out shares the tick pipeline and
// the forests) wait for the first computation instead of repeating it. A
// nil *Cache is valid and disables memoization, so all entry points take
// an optional cache.
//
// Training costs are part of the §4.3 accounting: each forest, threshold
// and RL artifact records the cost measured when it was first computed,
// and cache hits charge that recorded cost, keeping rendered figures
// consistent between cold and warm runs.
type Cache struct {
	ticks      memo[*errlog.Log, *TickArtifacts]
	samplers   memo[*jobs.Job, *jobs.Sampler]
	datasets   memo[datasetKey, RFDataset]
	forests    memo[forestKey, forestArtifact]
	thresholds memo[thresholdKey, thresholdArtifact]
	rls        memo[rlKey, rlArtifact]
}

// NewCache returns an empty artifact cache.
func NewCache() *Cache { return &Cache{} }

// memo is a compute-once map. The first get of a key runs compute;
// concurrent gets of the same key wait for that computation instead of
// repeating it. A compute that panics leaves no entry: the panic is
// re-raised to its caller and waiters retry, so the next get recomputes.
// The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	done chan struct{} // closed when the computation returned or panicked
	val  V
	ok   bool // compute returned (false after a panic)
}

func (m *memo[K, V]) get(key K, compute func() V) V {
	for {
		m.mu.Lock()
		cell, found := m.cells[key]
		if !found {
			if m.cells == nil {
				m.cells = map[K]*memoCell[V]{}
			}
			cell = &memoCell[V]{done: make(chan struct{})}
			m.cells[key] = cell
		}
		m.mu.Unlock()
		if !found {
			return m.fill(key, cell, compute)
		}
		<-cell.done
		if cell.ok {
			return cell.val
		}
	}
}

// fill runs compute for the cell this goroutine inserted under key.
func (m *memo[K, V]) fill(key K, cell *memoCell[V], compute func() V) V {
	defer func() {
		if !cell.ok {
			m.mu.Lock()
			delete(m.cells, key)
			m.mu.Unlock()
		}
		close(cell.done)
	}()
	cell.val = compute()
	cell.ok = true
	return cell.val
}

// TickArtifacts is the memoized tick pipeline of one log.
type TickArtifacts struct {
	// Pre is the preprocessed log (sorted, retirement-bias filtered, UE
	// bursts reduced).
	Pre *errlog.Log
	// ByNode holds the merged per-node tick sequences.
	ByNode [][]errlog.Tick
	// UETimes is the flat, sorted index of every UE event time in ByNode,
	// backing the O(log n) window queries the split loops perform.
	UETimes []time.Time
	// oraclePts holds, sorted by UE time, the Oracle mitigation point of
	// every reachable UE (see OraclePoints); window queries binary-search it
	// instead of rescanning every tick of every node.
	oraclePts []oraclePoint
}

// oraclePoint pairs a reachable UE's event time with the Oracle mitigation
// decision that prevents it.
type oraclePoint struct {
	ueTime time.Time
	key    policies.OracleKey
}

// OraclePoints returns the §4.2 Oracle mitigation set for UEs inside
// [from, to) (zero times disable a bound), served from the precomputed
// index — the same window query OraclePoints runs over the ByNode ticks.
func (a *TickArtifacts) OraclePoints(from, to time.Time) map[policies.OracleKey]bool {
	return oracleWindow(a.oraclePts, from, to)
}

// oracleWindow collects the points of a UE-time-sorted oracle index whose
// UE falls inside [from, to) (zero times disable a bound).
func oracleWindow(pts []oraclePoint, from, to time.Time) map[policies.OracleKey]bool {
	lo := 0
	if !from.IsZero() {
		lo = sort.Search(len(pts), func(i int) bool {
			return !pts[i].ueTime.Before(from)
		})
	}
	points := map[policies.OracleKey]bool{}
	for _, p := range pts[lo:] {
		if !to.IsZero() && !p.ueTime.Before(to) {
			break
		}
		points[p.key] = true
	}
	return points
}

// oracleIndex precomputes the window-independent part of OraclePoints: the
// reachability conditions (mitigation overhead, prediction window) do not
// depend on the query window, so each reachable UE's point is found once.
func oracleIndex(byNode [][]errlog.Tick) []oraclePoint {
	var out []oraclePoint
	for _, ticks := range byNode {
		lastDecision := time.Time{}
		haveDecision := false
		for _, tick := range ticks {
			if tick.HasUE() {
				ut := ueEventTime(tick)
				gap := ut.Sub(lastDecision)
				if haveDecision && gap >= OracleOverhead && gap <= PredictionWindow {
					out = append(out, oraclePoint{
						ueTime: ut,
						key:    policies.OracleKey{Node: tick.Node, Time: lastDecision},
					})
				}
				continue
			}
			lastDecision = tick.Time
			haveDecision = true
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ueTime.Before(out[j].ueTime) })
	return out
}

type datasetKey struct {
	log     *errlog.Log
	trainTo int64 // UnixNano
}

type forestKey struct {
	log     *errlog.Log
	trainTo int64
	cfg     rf.ForestConfig
}

type forestArtifact struct {
	forest *rf.Forest
	// trained reports whether the training set had positive samples; a
	// degenerate (never-firing) early-split forest skips the threshold
	// search.
	trained bool
	// costHours is the wallclock spent building the dataset and training
	// the forest when this artifact was computed (§4.3 training cost).
	costHours float64
}

type thresholdKey struct {
	forest   *rf.Forest
	sampler  *jobs.Sampler
	env      env.Config
	jobSeed  int64
	from, to int64
}

type thresholdArtifact struct {
	threshold float64
	costHours float64
}

// rlKey identifies one split's trained RL policy: every input the training
// trajectory depends on. Worker counts and GOMAXPROCS are absent by design
// — training is bit-deterministic across them — and so are the test window
// bounds, which training never sees. The warm-start chain is covered by
// (parts, split): split k's warm input is split k-1's artifact, itself a
// deterministic function of the same key family, so an artifact computed
// while split k-1 runs concurrently is the one the serial chain computed.
type rlKey struct {
	log      *errlog.Log
	sampler  *jobs.Sampler
	env      env.Config
	seed     int64
	preset   Preset
	episodes int
	parts    int
	split    int
	trainTo  int64 // UnixNano
	valFrom  int64
	kernel   int
}

// rlArtifact is one hyperparameter search's outcome: the winning
// candidate's online net (callers clone before mutating; the warm-start
// path only clones), its frozen greedy policy, and the §4.3 training cost.
type rlArtifact struct {
	net       *nn.Network
	policy    rl.Policy
	costHours float64
}

// rlPolicy returns the memoized trained policy for key, running the search
// via train on first use. Hits replay the §4.3 cost recorded on the miss,
// so cold and warm runs render identical training-cost rows.
func (c *Cache) rlPolicy(key rlKey, train func() rlArtifact) rlArtifact {
	if c == nil {
		return train()
	}
	return c.rls.get(key, train)
}

// buildTickArtifacts runs the uncached pipeline.
func buildTickArtifacts(log *errlog.Log) *TickArtifacts {
	pre := errlog.Preprocess(log)
	byNode := env.GroupTicks(errlog.Merge(pre, errlog.MergeWindow))
	return &TickArtifacts{
		Pre: pre, ByNode: byNode,
		UETimes:   ueTimeIndex(byNode),
		oraclePts: oracleIndex(byNode),
	}
}

// Ticks returns the memoized tick pipeline for log, computing it on first
// use. A nil cache computes it fresh.
func (c *Cache) Ticks(log *errlog.Log) *TickArtifacts {
	build := func() *TickArtifacts { return buildTickArtifacts(log) }
	if c == nil {
		return build()
	}
	return c.ticks.get(log, build)
}

// Sampler returns the memoized node-weighted sampler for trace. Keying by
// the trace's backing array identity keeps one sampler per generated
// trace, which in turn lets threshold artifacts key on sampler identity.
func (c *Cache) Sampler(trace []jobs.Job) *jobs.Sampler {
	build := func() *jobs.Sampler { return jobs.NewSampler(trace) }
	if c == nil || len(trace) == 0 {
		return build()
	}
	return c.samplers.get(&trace[0], build)
}

// dataset returns the memoized RF training set for ticks before trainTo.
func (c *Cache) dataset(log *errlog.Log, byNode [][]errlog.Tick, trainTo time.Time) RFDataset {
	build := func() RFDataset {
		return BuildRFDataset(ticksUpTo(byNode, trainTo), time.Time{}, trainTo)
	}
	if c == nil {
		return build()
	}
	return c.datasets.get(datasetKey{log: log, trainTo: trainTo.UnixNano()}, build)
}

// forest returns the memoized trained forest for (log, trainTo, cfg),
// whether its training set had positives, and the §4.3 training cost to
// charge. On first use it builds (or reuses) the dataset and trains via
// train; the recorded cost is the wallclock of dataset construction plus
// training.
func (c *Cache) forest(log *errlog.Log, byNode [][]errlog.Tick, trainTo time.Time, cfg rf.ForestConfig, train func(RFDataset) (*rf.Forest, bool)) (*rf.Forest, bool, float64) {
	build := func() forestArtifact {
		start := time.Now() //uerl:nondet-ok §4.3 training cost is charged as measured wallclock; cached artifacts replay the first measurement so cached and cold runs render identically
		f, trained := train(c.dataset(log, byNode, trainTo))
		return forestArtifact{forest: f, trained: trained, costHours: time.Since(start).Hours()} //uerl:nondet-ok wallclock training-cost metadata, see above
	}
	var a forestArtifact
	if c == nil {
		a = build()
	} else {
		a = c.forests.get(forestKey{log: log, trainTo: trainTo.UnixNano(), cfg: cfg}, build)
	}
	return a.forest, a.trained, a.costHours
}

// threshold returns the memoized optimal threshold for the forest under
// the given replay configuration, searching on first use.
func (c *Cache) threshold(forest *rf.Forest, byNode [][]errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig) (float64, float64) {
	search := func() thresholdArtifact {
		start := time.Now() //uerl:nondet-ok §4.3 threshold-search cost is charged as measured wallclock; the threshold itself is deterministic
		thr, _ := OptimalThreshold(forest, nil, byNode, sampler, cfg)
		return thresholdArtifact{threshold: thr, costHours: time.Since(start).Hours()} //uerl:nondet-ok wallclock search-cost metadata, see above
	}
	var a thresholdArtifact
	if c == nil {
		a = search()
	} else {
		a = c.thresholds.get(thresholdKey{
			forest: forest, sampler: sampler, env: cfg.Env,
			jobSeed: cfg.JobSeed, from: cfg.From.UnixNano(), to: cfg.To.UnixNano(),
		}, search)
	}
	return a.threshold, a.costHours
}

// ueTimeIndex collects every UE event time in the per-node sequences into
// one sorted slice — the precomputed index behind hasUEIn.
func ueTimeIndex(byNode [][]errlog.Tick) []time.Time {
	var out []time.Time
	for _, ticks := range byNode {
		for _, tick := range ticks {
			if tick.HasUE() {
				out = append(out, ueEventTime(tick))
			}
		}
	}
	sortTimes(out)
	return out
}

// sortTimes sorts in place (UE times arrive near-sorted, so insertion sort
// on the rare out-of-order element is plenty — the slice has tens of
// entries at paper scale).
func sortTimes(ts []time.Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Before(ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
