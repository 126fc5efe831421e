package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	uerl "repro"
	"repro/internal/evalx"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// The benchmark's own scenario specs. Their seeds are overridden by the
// run's --seed.
var (
	//go:embed specs/online-guarded.json
	guardedSpec []byte
	//go:embed specs/online-fleet.json
	fleetSpec []byte
)

// runGuarded is the online-guarded workload: single-process
// Controller + Guard + OnlineLearner stacks fed by one goroutine, with a
// closed-loop poller beside the feeder.
func runGuarded(cfg runConfig, rep *report) error {
	return runOnline(cfg, rep, guardedSpec, true)
}

// runFleet is the online-fleet workload: the same learner driving an
// in-process fleet of workers behind the channel transport, with worker
// kills, hangs and rejoins. It is the only workload that goes through
// internal/fleet.
func runFleet(cfg runConfig, rep *report) error {
	return runOnline(cfg, rep, fleetSpec, false)
}

// streams is how many independent fleets an online run serves, one
// after another, in each timed pass. The seed decides each fleet's
// lifecycle — when drift is detected, which candidate wins, when the
// fleet starts serving an RL policy — and that changes how much serving
// work a stream costs; summing over several seeded fleets keeps a run's
// cost close to the workload's, whichever seed it runs.
const streams = 4

func runOnline(cfg runConfig, rep *report, specJSON []byte, poll bool) error {
	base, err := scenario.Decode(specJSON)
	if err != nil {
		return err
	}
	var (
		cs     []*scenario.Compiled
		setups []float64
		events int
	)
	for setupStart := time.Now(); !setupDone(setupStart, len(setups)); {
		runtime.GC()
		start := time.Now()
		cs, events = nil, 0
		for k := 0; k < streams; k++ {
			spec := base
			spec.Seed = cfg.seed*streams + int64(k)
			c, err := scenario.Compile(spec)
			if err != nil {
				return err
			}
			cs = append(cs, c)
			events += len(c.Events)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	if cfg.trace {
		return traceOnline(cs, rep, poll, median(setups))
	}

	var (
		runs, allocs, rates, pollRates []float64
		decisions, pollLat             hist
		rounds                         [][]*pass
	)
	for start := time.Now(); !cfg.deadline(start, len(runs)); {
		round := make([]*pass, len(cs))
		var (
			dur   time.Duration
			alloc uint64
			polls uint64
		)
		for k, c := range cs {
			p := drive(c, driveOptions{poll: poll})
			round[k] = p
			dur += p.dur
			alloc += p.allocBytes
			polls += p.polls.n
			decisions.merge(&p.decisions)
			pollLat.merge(&p.polls)
		}
		rounds = append(rounds, round)
		runs = append(runs, dur.Seconds())
		allocs = append(allocs, float64(alloc)/1e6)
		rates = append(rates, float64(events)/dur.Seconds())
		pollRates = append(pollRates, float64(polls)/dur.Seconds())
	}

	// The checks run after the timed phase. The reference is the
	// benchmark's drive of each stream without a poller; it must match
	// what scenario.RunCompiled reports for the same stream (so the
	// benchmark measures the program the goldens pin), and every timed
	// pass must match it (so the poller's reads did not change what was
	// served).
	lost := 0.0
	for k, c := range cs {
		ref := drive(c, driveOptions{})
		sum, err := scenario.RunCompiled(c)
		golden := digestOf(sum)
		check(rep, fmt.Sprintf("stream %d: RunCompiled", k), ref, err, &golden)
		for i, round := range rounds {
			check(rep, fmt.Sprintf("stream %d: timed pass %d", k, i+1), round[k], nil, &ref.digest)
		}
		lost += ref.digest.LostNodeHours
	}

	rep.set("setup_s", median(setups))
	rep.set("run_s", median(runs))
	rep.set("alloc_mb", median(allocs))
	rep.set("events_per_s", median(rates))
	rep.note("decision_p50_us", decisions.quantile(0.50), "us")
	rep.note("decision_p99_us", decisions.quantile(0.99), "us")
	rep.note("decision_samples", float64(decisions.n), "count")
	rep.note("lost_node_hours", lost, "node-h")
	if poll {
		rep.note("poll_per_s", median(pollRates), "1/s")
		rep.note("poll_p99_us", pollLat.quantile(0.99), "us")
		rep.note("poll_samples", float64(pollLat.n), "count")
	}
	rep.note("passes", float64(len(runs)), "count")
	rep.note("stream_events", float64(events), "count")
	return nil
}

// check counts a pass's decisions as attempted operations and its
// contract violations as failed ones; a panic, an error or a summary
// that differs from want is one more failure.
func check(rep *report, what string, p *pass, err error, want *digest) {
	rep.attempted += p.digest.Learner.Decisions
	rep.failed += p.violations
	if p.violations > 0 {
		rep.fail("%s: %d decisions broke the graceful-degradation contract", what, p.violations)
	}
	switch {
	case p.err != nil:
		rep.failed++
		rep.fail("%s: %v", what, p.err)
	case err != nil:
		rep.failed++
		rep.fail("%s: %v", what, err)
	case want != nil:
		got, _ := json.Marshal(p.digest)
		exp, _ := json.Marshal(want)
		if string(got) != string(exp) {
			rep.failed++
			rep.fail("%s: served-stream summary differs:\n  got  %s\n  want %s", what, got, exp)
		}
	}
}

// digest is the part of a run's outcome that must not depend on who
// drives the stream or who reads beside it: the learner's own
// accounting, the lifecycle event counts and the served cost, plus the
// fleet counters under distributed serving.
type digest struct {
	Learner       uerl.LearnerStats `json:"learner"`
	EventCounts   map[string]int    `json:"event_counts"`
	LostNodeHours float64           `json:"lost_node_hours"`
	Mitigations   int               `json:"mitigations"`
	Vetoed        uint64            `json:"vetoed"`
	Fleet         *fleetDigest      `json:"fleet,omitempty"`
}

type fleetDigest struct {
	Failovers, Rejoins, OrphanNodes, ReplayedNodes, ReplayedEvents int
	AckedEvents, Appended, Deduped, Trimmed, Degraded              uint64
	MaxStaleEvents                                                 int
}

func digestOf(s scenario.Summary) digest {
	d := digest{
		Learner:       s.Learner,
		EventCounts:   s.Lifecycle.EventCounts,
		LostNodeHours: s.Survival.LostNodeHours,
		Mitigations:   s.Survival.Mitigations,
		Vetoed:        s.Survival.VetoedDecisions,
	}
	if f := s.Fleet; f != nil {
		d.Fleet = &fleetDigest{
			Failovers: f.Failovers, Rejoins: f.Rejoins, OrphanNodes: f.OrphanNodes,
			ReplayedNodes: f.ReplayedNodes, ReplayedEvents: f.ReplayedEvents,
			AckedEvents: f.AckedEvents, Appended: f.JournalAppended, Deduped: f.JournalDeduped,
			Trimmed: f.JournalTrimmed, Degraded: f.DegradedDecisions, MaxStaleEvents: f.MaxStaleEvents,
		}
	}
	return d
}

// driveOptions selects what a pass runs beside the feeder and what it
// records.
type driveOptions struct {
	// poll runs the closed-loop poller (single-process serving only).
	poll bool
	// trace finds the Process calls that retrained and, under fleet
	// serving, times every call into the coordinator.
	trace bool
}

// pass is one drive of the whole stream.
type pass struct {
	dur                  time.Duration
	allocBytes, mallocs  uint64
	gcs                  uint32
	decisions, polls     hist
	digest               digest
	violations           int
	err                  error
	final                uerl.Policy
	guardTrips           int
	retrains, promotions int
	retrainCalls         []time.Duration
	processTotal         time.Duration
	fleetCalls           *timedFleet
	fleetStats           *fleet.Stats
}

// drive feeds the compiled stream through a freshly built serving stack
// exactly as scenario.RunCompiled does — same learner options, same
// guard, same worker-fault interleaving, same served-stream scoring —
// timing each OnlineLearner.Process call on a decision event. With
// opts.poll a second goroutine calls Controller.Recommend round-robin
// over the nodes at the feeder's current stream time for the whole pass.
func drive(c *scenario.Compiled, opts driveOptions) (p *pass) {
	p = &pass{}
	spec := c.Spec
	initial := uerl.AlwaysPolicy()
	if spec.Lifecycle.InitialPolicy == "never" {
		initial = uerl.NeverPolicy()
	}
	var (
		serving uerl.Serving
		ctl     *uerl.Controller
		coord   *fleet.Coordinator
		tr      *fleet.ChanTransport
		err     error
	)
	lopts := learnerOptions(c)
	if spec.Serving != nil {
		coord, tr, err = newFleet(c, initial)
		if err != nil {
			p.err = err
			return p
		}
		serving = coord
		if opts.trace {
			p.fleetCalls = &timedFleet{c: coord}
			serving = p.fleetCalls
		}
		defer func() {
			// Stop the worker goroutines: a killed worker's goroutine exits.
			for w := 0; w < tr.Workers(); w++ {
				tr.Kill(w)
			}
		}()
	} else {
		ctl = uerl.NewController(initial)
		if g := newGuard(c, ctl); g != nil {
			lopts = append(lopts, uerl.WithGuard(g))
		}
		serving = ctl
	}

	shadowCfg := evalx.ShadowConfig{MitigationCostNodeHours: c.MitigationCostNodeMinutes / 60, Restartable: c.Restartable}
	served := evalx.NewShadowEval("served", shadowCfg)
	var (
		vetoed, degraded uint64
		maxStale         int
	)
	lopts = append(lopts,
		uerl.WithDecisionObserver(func(d uerl.Decision) {
			served.Decision(d.Node, d.Time, d.Mitigate())
			if d.Vetoed {
				vetoed++
				if d.Action != uerl.ActionNone {
					p.violations++
				}
			}
			if d.Degraded {
				degraded++
				if d.Action != uerl.ActionNone {
					p.violations++
				}
			}
			if d.StaleEvents > maxStale {
				maxStale = d.StaleEvents
			}
		}),
		uerl.WithUEObserver(func(node int, at time.Time, realized float64) {
			served.UE(node, at, realized)
		}),
	)
	learner := uerl.NewServingLearner(serving, lopts...)

	var clock atomic.Int64
	stopPoll := func() {}
	if opts.poll && ctl != nil {
		stopPoll = startPoller(ctl, c, &clock, &p.polls)
	}
	defer func() {
		if r := recover(); r != nil {
			stopPoll()
			p.err = fmt.Errorf("serving stack panicked: %v", r)
		}
	}()

	mem := startMem()
	start := time.Now()
	wf := c.WorkerFaults
	seen := 0
	var prev context.Context
	for _, e := range c.Events {
		for len(wf) > 0 && !wf[0].At.After(e.Time) {
			applyWorkerFault(tr, wf[0])
			wf = wf[1:]
		}
		if opts.trace {
			prev = enter("learner.process")
		}
		t0 := time.Now()
		learner.Process(e)
		d := time.Since(t0)
		if e.Type != uerl.UncorrectedError {
			p.decisions.add(d)
		}
		clock.Store(e.Time.UnixNano())
		if opts.trace {
			leave(prev)
			p.processTotal += d
			for _, ev := range learner.EventsSince(seen) {
				seen++
				if ev.Kind == uerl.LifecycleRetrain {
					p.retrainCalls = append(p.retrainCalls, d)
				}
			}
		}
	}
	for _, f := range wf {
		applyWorkerFault(tr, f)
	}
	if coord != nil {
		coord.Reconcile()
	}
	p.dur = time.Since(start)
	stopPoll()
	p.allocBytes, p.mallocs, p.gcs = mem.stop()

	stats := learner.Stats()
	counts := map[string]int{}
	for _, ev := range learner.Events() {
		counts[string(ev.Kind)]++
	}
	res := served.Result()
	p.digest = digest{
		Learner:       stats,
		EventCounts:   counts,
		LostNodeHours: round4(res.TotalCost()),
		Mitigations:   res.Metrics.Mitigations,
		Vetoed:        vetoed,
	}
	if stats.Guard != nil {
		p.guardTrips = stats.Guard.BudgetTrips
		if stats.Guard.SuppressedMitigations != vetoed {
			p.err = fmt.Errorf("guard accounted %d suppressed mitigations but the served stream carried %d vetoes",
				stats.Guard.SuppressedMitigations, vetoed)
		}
	}
	p.retrains = counts[string(uerl.LifecycleRetrain)]
	p.promotions = counts[string(uerl.LifecyclePromote)]
	p.final = serving.Policy()
	if coord != nil {
		st := coord.Stats()
		p.fleetStats = &st
		var workerTrips int
		for _, w := range st.Workers {
			if w.Stats != nil && w.Stats.Guard != nil {
				workerTrips += w.Stats.Guard.BudgetTrips
			}
		}
		p.guardTrips = workerTrips
		p.digest.Fleet = &fleetDigest{
			Failovers: st.Failovers, Rejoins: st.Rejoins, OrphanNodes: st.OrphanNodes,
			ReplayedNodes: st.ReplayedNodes, ReplayedEvents: st.ReplayedEvents,
			AckedEvents: st.AckedEvents, Appended: st.Journal.Appended, Deduped: st.Journal.Deduped,
			Trimmed: st.Journal.Trimmed, Degraded: degraded, MaxStaleEvents: maxStale,
		}
	}
	return p
}

// startPoller starts the closed-loop poller: like a dashboard with a
// clock synchronised to the stream, it asks Controller.Recommend about
// node after node, each at the time of the last event the feeder fed.
// The returned function stops it and waits until it has ended.
//
// Probing with a skewed clock (timestamps before or after the stream)
// is a correctness question for the tests, not load for this benchmark.
func startPoller(ctl *uerl.Controller, c *scenario.Compiled, clock *atomic.Int64, lat *hist) (stop func()) {
	var quit atomic.Bool
	done := make(chan struct{})
	nodes := c.Spec.Fleet.Nodes
	label := labelCtx("poller")
	go func() {
		defer close(done)
		pprof.SetGoroutineLabels(label)
		for node := 0; !quit.Load(); node = (node + 1) % nodes {
			ns := clock.Load()
			if ns == 0 {
				runtime.Gosched()
				continue
			}
			at := time.Unix(0, ns)
			cost := c.Cost(node, at)
			t0 := time.Now()
			ctl.Recommend(node, at, cost)
			lat.add(time.Since(t0))
		}
	}()
	return func() {
		if quit.Swap(true) {
			return
		}
		<-done
	}
}

// learnerOptions lowers the spec's lifecycle section to learner options
// the way the scenario runner does.
func learnerOptions(c *scenario.Compiled) []uerl.LearnerOption {
	l := c.Spec.Lifecycle
	driftThreshold := l.DriftThreshold
	if driftThreshold == 0 {
		driftThreshold = 8
	}
	shadowUEs := 1
	if l.ShadowUEs != nil {
		shadowUEs = *l.ShadowUEs
	}
	opts := []uerl.LearnerOption{
		uerl.WithLearnerSeed(c.Spec.Seed),
		uerl.WithCostSource(c.Cost),
		uerl.WithLearnerMitigationCost(c.MitigationCostNodeMinutes),
		uerl.WithLearnerRestartable(c.Restartable),
		uerl.WithDriftDetection(driftThreshold, orDefault(l.DriftWindow, 256)),
		uerl.WithRetraining(orDefault(l.RetrainMin, 256), orDefault(l.EpochSteps, 64)),
		uerl.WithShadowGate(orDefault(l.ShadowDecisions, 128), shadowUEs),
	}
	if l.ExperienceCapacity > 0 {
		opts = append(opts, uerl.WithExperienceCapacity(l.ExperienceCapacity))
	}
	return opts
}

// guardOptions lowers the spec's guard budgets.
func guardOptions(c *scenario.Compiled) []uerl.GuardOption {
	gs := c.Spec.Lifecycle.Guard
	return []uerl.GuardOption{
		uerl.WithNodeCheckpointBudget(gs.NodeBudgetNodeHours, hours(gs.NodeWindowHours, 24*time.Hour)),
		uerl.WithFleetMitigationBudget(gs.FleetMitigations, hours(gs.FleetWindowHours, time.Hour)),
		uerl.WithGuardMitigationCost(c.MitigationCostNodeMinutes),
		uerl.WithGuardRestartable(c.Restartable),
	}
}

// newGuard builds the single-process guard the spec asks for, nil for
// none.
func newGuard(c *scenario.Compiled, ctl *uerl.Controller) *uerl.Guard {
	gs := c.Spec.Lifecycle.Guard
	if gs == nil {
		return nil
	}
	hook := uerl.AutoApprove()
	if gs.Approve == "deny" {
		hook = uerl.DenyPromotions("scenario promotion freeze")
	}
	tol := 5.0
	if gs.ProbationToleranceNH != nil {
		tol = *gs.ProbationToleranceNH
	}
	return uerl.NewGuard(ctl, append(guardOptions(c),
		uerl.WithPromotionBudget(gs.PromotionsPerDay),
		uerl.WithApprovalHook(hook),
		uerl.WithProbation(orDefault(gs.ProbationDecisions, 4096), tol))...)
}

// newFleet builds the in-process fleet of the spec's serving section,
// with per-worker budget guards when the spec has a guard.
func newFleet(c *scenario.Compiled, initial uerl.Policy) (*fleet.Coordinator, *fleet.ChanTransport, error) {
	sv := c.Spec.Serving
	cfg := fleet.Config{
		Workers:          sv.Workers,
		Seed:             c.Spec.Seed,
		Initial:          initial,
		JournalCapacity:  sv.JournalCapacity,
		DedupWindow:      time.Duration(sv.DedupWindowSeconds * float64(time.Second)),
		FailureThreshold: sv.FailureThreshold,
		RetryBackoff:     time.Duration(sv.RetryBackoffSeconds * float64(time.Second)),
	}
	if c.Spec.Lifecycle.Guard != nil {
		gopts := guardOptions(c)
		cfg.NewWorker = func(id int) *fleet.Worker {
			return fleet.NewWorker(id, initial, fleet.WithWorkerGuard(gopts...))
		}
	}
	return fleet.NewInProcess(cfg)
}

func applyWorkerFault(tr *fleet.ChanTransport, f scenario.WorkerFault) {
	switch f.Kind {
	case scenario.WorkerKill:
		tr.Kill(f.Worker)
	case scenario.WorkerHang:
		tr.Hang(f.Worker)
	case scenario.WorkerRejoin:
		tr.Rejoin(f.Worker)
	}
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func hours(h float64, def time.Duration) time.Duration {
	if h == 0 {
		return def
	}
	return time.Duration(h * float64(time.Hour))
}

// round4 rounds as the scenario summary does.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }
