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
// keys are pointer identities. Every artifact is a deterministic function
// of its key, so concurrent duplicate computation is harmless (last write
// wins with an identical value). A nil *Cache is valid and disables
// memoization, so all entry points take an optional cache.
//
// Wallclock training costs are part of the §4.3 accounting: each forest
// and threshold artifact records the cost measured when it was first
// computed, and cache hits charge that recorded cost, keeping rendered
// figures consistent between cold and warm runs.
type Cache struct {
	mu         sync.Mutex
	ticks      map[*errlog.Log]*TickArtifacts
	samplers   map[*jobs.Job]*jobs.Sampler
	datasets   map[datasetKey]RFDataset
	forests    map[forestKey]*forestArtifact
	thresholds map[thresholdKey]*thresholdArtifact
	rls        map[rlKey]*rlArtifact
}

// NewCache returns an empty artifact cache.
func NewCache() *Cache {
	return &Cache{
		ticks:      map[*errlog.Log]*TickArtifacts{},
		samplers:   map[*jobs.Job]*jobs.Sampler{},
		datasets:   map[datasetKey]RFDataset{},
		forests:    map[forestKey]*forestArtifact{},
		thresholds: map[thresholdKey]*thresholdArtifact{},
		rls:        map[rlKey]*rlArtifact{},
	}
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
// trajectory depends on. Worker counts and parallelism knobs are absent by
// design — training is bit-deterministic across them — and so are the test
// window bounds, which training never sees. The warm-start chain is covered
// by (parts, split): split k's warm input is split k-1's artifact, itself a
// deterministic function of the same key family.
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

type rlArtifact struct {
	net       *nn.Network
	policy    rl.Policy
	costHours float64
}

// rlPolicy returns the memoized trained policy for key, training via train
// on first use. The returned network is the winning candidate's online net
// (callers clone before mutating; the warm-start path only clones). Hits
// replay the §4.3 wallclock recorded on the miss, so cold and warm runs
// render identical training-cost rows.
func (c *Cache) rlPolicy(key rlKey, train func() (rl.Policy, *nn.Network)) (rl.Policy, *nn.Network, float64) {
	if c == nil {
		start := time.Now() //uerl:nondet-ok §4.3 RL training cost is charged as measured wallclock; trained weights stay seed-deterministic
		pol, net := train()
		return pol, net, time.Since(start).Hours() //uerl:nondet-ok wallclock training-cost metadata, see above
	}
	c.mu.Lock()
	art := c.rls[key]
	c.mu.Unlock()
	if art != nil {
		return art.policy, art.net, art.costHours
	}
	start := time.Now() //uerl:nondet-ok §4.3 RL training cost is charged as measured wallclock; cached artifacts replay the first measurement so cached and cold runs render identically
	pol, net := train()
	cost := time.Since(start).Hours() //uerl:nondet-ok wallclock training-cost metadata, see above
	c.mu.Lock()
	c.rls[key] = &rlArtifact{net: net, policy: pol, costHours: cost}
	c.mu.Unlock()
	return pol, net, cost
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
	if c == nil {
		return buildTickArtifacts(log)
	}
	c.mu.Lock()
	art := c.ticks[log]
	c.mu.Unlock()
	if art != nil {
		return art
	}
	art = buildTickArtifacts(log)
	c.mu.Lock()
	c.ticks[log] = art
	c.mu.Unlock()
	return art
}

// Sampler returns the memoized node-weighted sampler for trace. Keying by
// the trace's backing array identity keeps one sampler per generated
// trace, which in turn lets threshold artifacts key on sampler identity.
func (c *Cache) Sampler(trace []jobs.Job) *jobs.Sampler {
	if c == nil || len(trace) == 0 {
		return jobs.NewSampler(trace)
	}
	key := &trace[0]
	c.mu.Lock()
	s := c.samplers[key]
	c.mu.Unlock()
	if s != nil {
		return s
	}
	s = jobs.NewSampler(trace)
	c.mu.Lock()
	c.samplers[key] = s
	c.mu.Unlock()
	return s
}

// dataset returns the memoized RF training set for ticks before trainTo.
func (c *Cache) dataset(log *errlog.Log, byNode [][]errlog.Tick, trainTo time.Time) RFDataset {
	build := func() RFDataset {
		return BuildRFDataset(ticksUpTo(byNode, trainTo), time.Time{}, trainTo)
	}
	if c == nil {
		return build()
	}
	key := datasetKey{log: log, trainTo: trainTo.UnixNano()}
	c.mu.Lock()
	ds, ok := c.datasets[key]
	c.mu.Unlock()
	if ok {
		return ds
	}
	ds = build()
	c.mu.Lock()
	c.datasets[key] = ds
	c.mu.Unlock()
	return ds
}

// forest returns the memoized trained forest for (log, trainTo, cfg),
// whether its training set had positives, and the §4.3 training cost to
// charge. On first use it builds (or reuses) the dataset and trains via
// train; the recorded cost is the wallclock of dataset construction plus
// training, matching what the uncached path used to measure.
func (c *Cache) forest(log *errlog.Log, byNode [][]errlog.Tick, trainTo time.Time, cfg rf.ForestConfig, train func(RFDataset) (*rf.Forest, bool)) (*rf.Forest, bool, float64) {
	if c == nil {
		start := time.Now() //uerl:nondet-ok §4.3 training cost is charged as measured wallclock; it annotates results and never feeds replay decisions
		f, trained := train(BuildRFDataset(ticksUpTo(byNode, trainTo), time.Time{}, trainTo))
		return f, trained, time.Since(start).Hours() //uerl:nondet-ok wallclock training-cost metadata, see above
	}
	key := forestKey{log: log, trainTo: trainTo.UnixNano(), cfg: cfg}
	c.mu.Lock()
	art := c.forests[key]
	c.mu.Unlock()
	if art != nil {
		return art.forest, art.trained, art.costHours
	}
	start := time.Now() //uerl:nondet-ok §4.3 training cost is charged as measured wallclock; cached artifacts replay the first measurement so cached and cold runs render identically
	f, trained := train(c.dataset(log, byNode, trainTo))
	cost := time.Since(start).Hours() //uerl:nondet-ok wallclock training-cost metadata, see above
	c.mu.Lock()
	c.forests[key] = &forestArtifact{forest: f, trained: trained, costHours: cost}
	c.mu.Unlock()
	return f, trained, cost
}

// threshold returns the memoized optimal threshold for the forest under
// the given replay configuration, searching on first use.
func (c *Cache) threshold(forest *rf.Forest, byNode [][]errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig) (float64, float64) {
	search := func() (float64, float64) {
		start := time.Now() //uerl:nondet-ok §4.3 threshold-search cost is charged as measured wallclock; the threshold itself is deterministic
		thr, _ := OptimalThreshold(forest, nil, byNode, sampler, cfg)
		return thr, time.Since(start).Hours() //uerl:nondet-ok wallclock search-cost metadata, see above
	}
	if c == nil {
		return search()
	}
	key := thresholdKey{
		forest: forest, sampler: sampler, env: cfg.Env,
		jobSeed: cfg.JobSeed, from: cfg.From.UnixNano(), to: cfg.To.UnixNano(),
	}
	c.mu.Lock()
	art := c.thresholds[key]
	c.mu.Unlock()
	if art != nil {
		return art.threshold, art.costHours
	}
	thr, cost := search()
	c.mu.Lock()
	c.thresholds[key] = &thresholdArtifact{threshold: thr, costHours: cost}
	c.mu.Unlock()
	return thr, cost
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
