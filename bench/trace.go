package main

import (
	"context"
	"fmt"
	"time"

	uerl "repro"
	"repro/internal/evalx"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// traceOnline is the traced run of an online workload. It drives each
// stream once as the timed passes do, additionally finding the Process
// calls that retrained (and, under fleet serving, timing every call into
// the coordinator). An isolated replay of each stream then times the
// controller, policy, guard and shadow-evaluation layers one call at a
// time. Figures are over all streams.
func traceOnline(cs []*scenario.Compiled, rep *report, poll bool, setupS float64) error {
	var (
		decisions, polls                        hist
		passDur, retrainTotal, processTotal     time.Duration
		mallocs                                 uint64
		gcs                                     uint32
		lost                                    float64
		nDecisions, retrains, promotions, trips int
		vetoed, degraded                        uint64
		retrainMs                               []float64
		fleetCalls                              timedFleet
		replayed, failovers                     int
		appended, deduped, acked                uint64
		iso                                     isolated
		events                                  int
	)
	for k, c := range cs {
		p := drive(c, driveOptions{poll: poll, trace: true})
		check(rep, fmt.Sprintf("stream %d: traced pass", k), p, nil, nil)
		events += len(c.Events)
		decisions.merge(&p.decisions)
		polls.merge(&p.polls)
		passDur += p.dur
		mallocs += p.mallocs
		gcs += p.gcs
		lost += p.digest.LostNodeHours
		nDecisions += p.digest.Learner.Decisions
		vetoed += p.digest.Vetoed
		retrains += p.retrains
		promotions += p.promotions
		trips += p.guardTrips
		processTotal += p.processTotal
		for _, d := range p.retrainCalls {
			retrainTotal += d
			retrainMs = append(retrainMs, float64(d.Microseconds())/1e3)
		}
		if f := p.fleetCalls; f != nil {
			fleetCalls.observe.merge(&f.observe)
			fleetCalls.recommend.merge(&f.recommend)
			fleetCalls.observeDecision.merge(&f.observeDecision)
			fleetCalls.deploy.merge(&f.deploy)
			st := p.fleetStats
			replayed += st.ReplayedEvents
			failovers += st.Failovers
			appended += st.Journal.Appended
			deduped += st.Journal.Deduped
			acked += st.AckedEvents
			degraded += p.digest.Fleet.Degraded
		}
		iso.replay(c, p.final)
	}

	rep.set("scenario.compile_s", setupS)
	rep.set("scenario.events", float64(events))
	rep.set("runtime.mallocs", float64(mallocs))
	rep.set("runtime.gc_cycles", float64(gcs))
	rep.set("learner.decision_p50_us", decisions.quantile(0.50))
	rep.set("learner.decision_p99_us", decisions.quantile(0.99))
	rep.set("learner.decision_samples", float64(decisions.n))
	rep.set("serving.lost_node_hours", lost)
	if poll {
		rep.set("poller.poll_per_s", float64(polls.n)/passDur.Seconds())
		rep.set("poller.poll_p99_us", polls.quantile(0.99))
	}
	rep.set("lifecycle.retrains", float64(retrains))
	if retrains > 0 {
		rep.set("lifecycle.promote_ratio", float64(promotions)/float64(retrains))
	}
	rep.set("lifecycle.retrain_ms", median(retrainMs))
	if processTotal > 0 {
		rep.set("lifecycle.retrain_share", retrainTotal.Seconds()/processTotal.Seconds())
	}
	if nDecisions > 0 {
		rep.set("guard.veto_share", float64(vetoed)/float64(nDecisions))
	}
	rep.set("guard.trips", float64(trips))

	if cs[0].Spec.Serving != nil {
		rep.set("fleet.observe_p50_us", fleetCalls.observe.quantile(0.50))
		rep.set("fleet.observe_p99_us", fleetCalls.observe.quantile(0.99))
		rep.set("fleet.recommend_us", fleetCalls.recommend.quantile(0.50))
		rep.set("fleet.observe_decision_us", fleetCalls.observeDecision.quantile(0.50))
		rep.set("fleet.deploy_ms", fleetCalls.deploy.quantile(0.50)/1e3)
		rep.set("fleet.replayed_events", float64(replayed))
		rep.set("fleet.failovers", float64(failovers))
		if appended+deduped > 0 {
			rep.set("fleet.dedup_ratio", float64(deduped)/float64(appended+deduped))
		}
		if appended > 0 {
			rep.set("fleet.acked_ratio", float64(acked)/float64(appended))
		}
		if nDecisions > 0 {
			rep.set("fleet.degraded_share", float64(degraded)/float64(nDecisions))
		}
		rep.note("fleet.deploys", float64(fleetCalls.deploy.n), "count")
	}
	rep.set("controller.observe_ns", iso.observe.meanNs())
	rep.set("controller.recommend_p50_us", iso.recommend.quantile(0.50))
	rep.set("controller.recommend_p99_us", iso.recommend.quantile(0.99))
	rep.set("policy.decide_us", iso.decide.meanNs()/1e3)
	if iso.recommend.n > 0 {
		rep.set("guard.consult_ns", float64(iso.consult.Nanoseconds())/float64(iso.recommend.n))
	}
	rep.set("guard.observe_decision_ns", iso.observeDecision.meanNs())
	rep.set("evalx.shadow_ns", iso.shadow.meanNs())
	rep.note("pass_s", passDur.Seconds(), "s")
	return nil
}

// isolated accumulates the isolated replays' layer timings.
type isolated struct {
	observe, recommend, decide, observeDecision, shadow hist
	consult                                             time.Duration
}

// replay replays the stream into two fresh Controllers serving final —
// one bare, one behind a Guard with the spec's budgets — and times one
// layer call at a time: ObserveEvent, Recommend on each controller
// (their difference is the guard consult), Policy.Decide on the same
// snapshot, Guard.ObserveDecision, and an evalx.ShadowEval scoring the
// bare controller's decisions.
func (iso *isolated) replay(c *scenario.Compiled, final uerl.Policy) {
	bare := uerl.NewController(final)
	guarded := uerl.NewController(final)
	g := newGuard(c, guarded)
	shadow := evalx.NewShadowEval("isolated", evalx.ShadowConfig{
		MitigationCostNodeHours: c.MitigationCostNodeMinutes / 60,
		Restartable:             c.Restartable,
	})
	var prev context.Context
	for _, e := range c.Events {
		prev = enter("controller.observe")
		t0 := time.Now()
		bare.ObserveEvent(e)
		iso.observe.add(time.Since(t0))
		leave(prev)
		guarded.ObserveEvent(e)

		cost := c.Cost(e.Node, e.Time)
		if e.Type == uerl.UncorrectedError {
			prev = enter("evalx.shadow")
			t0 = time.Now()
			shadow.UE(e.Node, e.Time, cost)
			iso.shadow.add(time.Since(t0))
			leave(prev)
			continue
		}
		// Alternate which controller answers first, so that the second
		// call's warmer caches do not bias the guard consult estimate.
		var (
			d, dg           uerl.Decision
			dBare, dGuarded time.Duration
		)
		if iso.recommend.n%2 == 0 {
			d, dBare = timedRecommend("controller.recommend", bare, e, cost)
			dg, dGuarded = timedRecommend("guard.consult", guarded, e, cost)
		} else {
			dg, dGuarded = timedRecommend("guard.consult", guarded, e, cost)
			d, dBare = timedRecommend("controller.recommend", bare, e, cost)
		}
		iso.recommend.add(dBare)
		iso.consult += dGuarded - dBare

		prev = enter("guard.observe_decision")
		t0 = time.Now()
		g.ObserveDecision(dg)
		iso.observeDecision.add(time.Since(t0))
		leave(prev)

		snap := uerl.Snapshot{Node: e.Node, Time: e.Time, Features: d.Features}
		prev = enter("policy.decide")
		t0 = time.Now()
		final.Decide(snap)
		iso.decide.add(time.Since(t0))
		leave(prev)

		prev = enter("evalx.shadow")
		t0 = time.Now()
		shadow.Decision(e.Node, e.Time, d.Mitigate())
		iso.shadow.add(time.Since(t0))
		leave(prev)
	}
}

func timedRecommend(layer string, ctl *uerl.Controller, e uerl.Event, cost float64) (uerl.Decision, time.Duration) {
	prev := enter(layer)
	t0 := time.Now()
	d := ctl.Recommend(e.Node, e.Time, cost)
	dur := time.Since(t0)
	leave(prev)
	return d, dur
}

// timedFleet wraps the fleet Coordinator as the learner's serving layer
// and times every call into it. The learner takes any uerl.Serving in
// fleet mode, and routes decision accounting to it because it also has
// the coordinator's ObserveDecision and ObserveUE.
type timedFleet struct {
	c                                           *fleet.Coordinator
	observe, recommend, observeDecision, deploy hist
}

var _ uerl.Serving = (*timedFleet)(nil)

func (t *timedFleet) ObserveEvent(e uerl.Event) {
	prev := enter("fleet.observe")
	t0 := time.Now()
	t.c.ObserveEvent(e)
	t.observe.add(time.Since(t0))
	leave(prev)
}

func (t *timedFleet) Recommend(node int, at time.Time, cost float64) uerl.Decision {
	prev := enter("fleet.recommend")
	t0 := time.Now()
	d := t.c.Recommend(node, at, cost)
	t.recommend.add(time.Since(t0))
	leave(prev)
	return d
}

func (t *timedFleet) Policy() uerl.Policy { return t.c.Policy() }

func (t *timedFleet) DeployPolicy(p uerl.Policy) (uerl.Policy, error) {
	prev := enter("fleet.deploy")
	t0 := time.Now()
	old, err := t.c.DeployPolicy(p)
	t.deploy.add(time.Since(t0))
	leave(prev)
	return old, err
}

func (t *timedFleet) ObserveDecision(d uerl.Decision) {
	prev := enter("fleet.observe_decision")
	t0 := time.Now()
	t.c.ObserveDecision(d)
	t.observeDecision.add(time.Since(t0))
	leave(prev)
}

func (t *timedFleet) ObserveUE(node int, at time.Time, realizedCostNodeHours float64) {
	t.c.ObserveUE(node, at, realizedCostNodeHours)
}
