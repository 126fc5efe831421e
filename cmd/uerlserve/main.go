// Command uerlserve demonstrates the online continual-learning serving
// loop on a days-long fleet scenario: it synthesizes a MareNostrum-style
// telemetry stream whose fault behaviour shifts mid-run (DIMM aging /
// fault-mode change), serves it through a Controller wrapped in an
// OnlineLearner, and reports the model lifecycle — drift detection,
// incremental retraining on live experience, shadow evaluation of each
// candidate against the incumbent, and the hot-swap promotions with
// their model lineage.
//
// Usage:
//
//	uerlserve [-seed 1] [-nodes 64] [-days 30] [-drift-day 15]
//	          [-drift-mult 6] [-policy always|never] [-model artifact.json]
//	          [-cost 100] [-mitcost 2] [-drift-window 256] [-drift-threshold 8]
//	          [-retrain-min 256] [-epoch-steps 64] [-shadow 128] [-shadow-ues 1]
//	          [-save final.json] [-json]
//
// With -guard the lifecycle runs behind the production guardrails:
// budgets (-node-budget, -fleet-budget, -promotions-per-day), promotion
// approval (-approve auto|deny), and post-promotion probation with
// rollback-on-regression (-probation, -probation-tolerance).
//
// With -scenario the run is driven by a declarative scenario spec (see
// scenarios/ and internal/scenario): telemetry overlay, drift schedule,
// fault-injection schedule, workload model, and lifecycle/guard
// configuration all come from the JSON file, and the output is the
// scenario survival summary.
//
// With -workers N the stream is served through the distributed fleet
// layer (internal/fleet): a coordinator rendezvous-hashes nodes across N
// in-process workers, and -kill-worker / -rejoin-worker (comma-separated
// id@day entries) schedule worker crashes and rejoins mid-stream to
// demonstrate failover replay and graceful degradation. With -guard the
// budget flags lower to per-worker guards; the promotion/approval/
// probation flags are lifecycle-level features a worker guard cannot
// arbitrate and are rejected. The -json report gains per-worker fleet
// health (including each worker's GuardStats).
//
// The whole run is deterministic for a fixed flag set.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	uerl "repro"
	"repro/internal/cliio"
	"repro/internal/errlog"
	"repro/internal/fleet"
	"repro/internal/nn"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

type legacyScenario struct {
	Seed      int64   `json:"seed"`
	Nodes     int     `json:"nodes"`
	Days      float64 `json:"days"`
	DriftDay  float64 `json:"drift_day"`
	DriftMult float64 `json:"drift_mult"`
	Events    int     `json:"events"`
	UEs       int     `json:"ues"`
	Initial   string  `json:"initial_version"`
	Guarded   bool    `json:"guarded,omitempty"`
	Workers   int     `json:"workers,omitempty"`
}

type jsonReport struct {
	Scenario legacyScenario        `json:"scenario"`
	Events   []uerl.LifecycleEvent `json:"lifecycle_events"`
	Stats    uerl.LearnerStats     `json:"stats"`
	// Lineage is the served model's version chain, newest first, ending
	// at the initial policy.
	Lineage []string `json:"lineage"`
	// Fleet is the distributed serving layer's health report — per-worker
	// state, owned nodes and GuardStats, failover/replay totals, journal
	// activity. Omitted without -workers.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

func main() {
	seed := flag.Int64("seed", 1, "random seed (stream and trainer)")
	nodes := flag.Int("nodes", 64, "fleet size in nodes")
	days := flag.Float64("days", 30, "scenario length in days")
	driftDay := flag.Float64("drift-day", 15, "day the fault behaviour shifts (0 disables drift)")
	driftMult := flag.Float64("drift-mult", 6, "CE rate/burst multiplier after the shift")
	policy := flag.String("policy", "always", "initial policy: always or never")
	model := flag.String("model", "", "initial model artifact (overrides -policy)")
	cost := flag.Float64("cost", 100, "potential UE cost in node-hours (workload model)")
	mitcost := flag.Float64("mitcost", 2, "mitigation cost in node-minutes")
	driftWindow := flag.Int("drift-window", 256, "drift-detection window samples")
	driftThreshold := flag.Float64("drift-threshold", 8, "drift z-score threshold")
	retrainMin := flag.Int("retrain-min", 256, "minimum new transitions between retrains")
	epochSteps := flag.Int("epoch-steps", 64, "gradient steps per retraining epoch")
	shadow := flag.Int("shadow", 128, "shadow decisions required before promotion is judged")
	shadowUEs := flag.Int("shadow-ues", 1, "realized UEs required in the shadow window before promotion is judged (0 judges on mitigation spend alone)")
	kernel := flag.String("kernel", "reference", "training kernel/stream version: reference (bit-exact legacy stream) or fast (FMA kernels + chunked gradients reduced in chunk order; serving inference always uses reference)")
	save := flag.String("save", "", "save the final serving model artifact to this path")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the text log")
	scenarioFile := flag.String("scenario", "", "run a declarative scenario spec (JSON file) through the deterministic scenario harness; stream/drift/fault/workload/lifecycle flags are taken from the spec")

	guarded := flag.Bool("guard", false, "run the lifecycle behind production guardrails")
	nodeBudget := flag.Float64("node-budget", 0, "per-node checkpoint budget in node-hours per window (0 disables)")
	nodeBudgetWindow := flag.Duration("node-budget-window", 24*time.Hour, "sliding window of the per-node budget")
	fleetBudget := flag.Int("fleet-budget", 0, "fleet-wide mitigation budget per window (0 disables)")
	fleetBudgetWindow := flag.Duration("fleet-budget-window", time.Hour, "sliding window of the fleet budget")
	promotionsPerDay := flag.Int("promotions-per-day", 0, "promotion budget per sliding 24h (0 disables)")
	approve := flag.String("approve", "auto", "promotion approval hook: auto or deny")
	probation := flag.Int("probation", 4096, "post-promotion probation window in decisions (0 disables rollback)")
	probationTol := flag.Float64("probation-tolerance", 5, "probation regression tolerance in node-hours")

	workers := flag.Int("workers", 0, "serve through the distributed fleet layer with this many in-process workers (0 = single-process Controller)")
	killWorker := flag.String("kill-worker", "", "comma-separated id@day entries: crash the worker at that stream day (state lost, journal replays on rejoin)")
	rejoinWorker := flag.String("rejoin-worker", "", "comma-separated id@day entries: bring a killed worker back")
	flag.Parse()

	if *scenarioFile != "" {
		if *model != "" || *save != "" {
			fatal(fmt.Errorf("-model and -save are not supported in scenario mode"))
		}
		if *workers > 0 {
			fatal(fmt.Errorf("-workers is not supported in scenario mode; give the spec a serving section instead"))
		}
		if *kernel != "reference" {
			fatal(fmt.Errorf("scenario runs use the reference kernel; drop -kernel %s", *kernel))
		}
		data, err := os.ReadFile(*scenarioFile)
		if err != nil {
			fatal(err)
		}
		spec, err := scenario.Decode(data)
		if err != nil {
			fatal(err)
		}
		sum, err := scenario.Run(spec)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out, err := scenario.EncodeSummary(sum)
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(out)
			return
		}
		printSummary(sum)
		return
	}

	initial, err := initialPolicy(*policy, *model)
	if err != nil {
		fatal(err)
	}

	stream, ues := generateStream(*seed, *nodes, *days, *driftDay, *driftMult)
	sc := legacyScenario{
		Seed: *seed, Nodes: *nodes, Days: *days, DriftDay: *driftDay, DriftMult: *driftMult,
		Events: len(stream), UEs: ues, Initial: initial.Version(),
		Guarded: *guarded, Workers: *workers,
	}
	if !*jsonOut {
		fmt.Printf("scenario: %d nodes, %.0f days, %d events (%d UEs), fault shift ×%.0f at day %.0f\n",
			sc.Nodes, sc.Days, sc.Events, sc.UEs, sc.DriftMult, sc.DriftDay)
		fmt.Printf("serving %s (%s)\n", initial.Name(), initial.Version())
	}

	kernelVersion := nn.KernelReference
	switch *kernel {
	case "reference":
	case "fast":
		kernelVersion = nn.KernelFast
	default:
		fatal(fmt.Errorf("unknown -kernel %q (want reference or fast)", *kernel))
	}

	// Single-process serving by default; -workers N swaps in the
	// distributed fleet layer behind the same Serving interface.
	var (
		serving uerl.Serving
		coord   *fleet.Coordinator
		tr      *fleet.ChanTransport
		ctl     *uerl.Controller
	)
	var start time.Time
	if len(stream) > 0 {
		start = stream[0].Time
	}
	var workerFaults []workerFault
	if *workers > 0 {
		if *guarded && (*promotionsPerDay != 0 || *approve != "auto" || *probation != 4096) {
			fatal(fmt.Errorf("-workers lowers -guard to per-worker budget enforcement; the promotion/approval/probation flags are not available with a fleet"))
		}
		cfg := fleet.Config{Workers: *workers, Seed: *seed, Initial: initial}
		if *guarded {
			guardOpts := []uerl.GuardOption{
				uerl.WithNodeCheckpointBudget(*nodeBudget, *nodeBudgetWindow),
				uerl.WithFleetMitigationBudget(*fleetBudget, *fleetBudgetWindow),
				uerl.WithGuardMitigationCost(*mitcost),
			}
			cfg.NewWorker = func(id int) *fleet.Worker {
				return fleet.NewWorker(id, initial, fleet.WithWorkerGuard(guardOpts...))
			}
		}
		var err error
		coord, tr, err = fleet.NewInProcess(cfg)
		if err != nil {
			fatal(err)
		}
		serving = coord
		if workerFaults, err = parseWorkerFaults(*killWorker, *rejoinWorker, *workers, *days, start); err != nil {
			fatal(err)
		}
	} else {
		if *killWorker != "" || *rejoinWorker != "" {
			fatal(fmt.Errorf("-kill-worker/-rejoin-worker need -workers"))
		}
		ctl = uerl.NewController(initial)
		serving = ctl
	}

	opts := []uerl.LearnerOption{
		uerl.WithLearnerSeed(*seed),
		uerl.WithCostSource(uerl.ConstantCost(*cost)),
		uerl.WithLearnerMitigationCost(*mitcost),
		uerl.WithDriftDetection(*driftThreshold, *driftWindow),
		uerl.WithRetraining(*retrainMin, *epochSteps),
		uerl.WithShadowGate(*shadow, *shadowUEs),
		uerl.WithLearnerKernel(kernelVersion),
	}
	var g *uerl.Guard
	if *guarded && ctl != nil {
		hook := uerl.AutoApprove()
		switch *approve {
		case "auto":
		case "deny":
			hook = uerl.DenyPromotions("operator freeze (-approve deny)")
		default:
			fatal(fmt.Errorf("unknown -approve %q (want auto or deny)", *approve))
		}
		g = uerl.NewGuard(ctl,
			uerl.WithNodeCheckpointBudget(*nodeBudget, *nodeBudgetWindow),
			uerl.WithFleetMitigationBudget(*fleetBudget, *fleetBudgetWindow),
			uerl.WithPromotionBudget(*promotionsPerDay),
			uerl.WithApprovalHook(hook),
			uerl.WithProbation(*probation, *probationTol),
			uerl.WithGuardMitigationCost(*mitcost),
		)
		opts = append(opts, uerl.WithGuard(g))
	}
	learner := uerl.NewServingLearner(serving, opts...)

	printed := 0
	faults := workerFaults
	for _, e := range stream {
		for len(faults) > 0 && !faults[0].at.After(e.Time) {
			applyWorkerFault(tr, faults[0], start)
			faults = faults[1:]
		}
		learner.Process(e)
		if *jsonOut {
			continue
		}
		for _, ev := range learner.EventsSince(printed) {
			fmt.Printf("[day %5.1f] %-7s %s", ev.Time.Sub(start).Hours()/24, ev.Kind, ev.Detail)
			if ev.Kind != uerl.LifecycleDrift && ev.ModelVersion != "" {
				fmt.Printf(" (model %s)", ev.ModelVersion)
			}
			fmt.Println()
			printed++
		}
	}
	for _, f := range faults {
		applyWorkerFault(tr, f, start)
	}
	if coord != nil {
		coord.Reconcile()
	}

	stats := learner.Stats()
	lineage := lineageChain(initial.Version(), stats.ServingVersion, learner.Events())
	if *save != "" {
		if err := uerl.SaveModelFile(*save, serving.Policy()); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		report := jsonReport{
			Scenario: sc, Events: learner.Events(), Stats: stats, Lineage: lineage,
		}
		if coord != nil {
			fs := coord.Stats()
			report.Fleet = &fs
		}
		if err := cliio.WriteJSON(os.Stdout, report); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("\nfinal: generation %d, serving %s\n", stats.Generation, stats.ServingVersion)
	fmt.Printf("decisions=%d ues=%d transitions=%d (dropped %d) epochs=%d\n",
		stats.Decisions, stats.UEs, stats.Transitions, stats.DroppedTransitions, stats.Epochs)
	if gs := stats.Guard; gs != nil {
		fmt.Printf("guard: suppressed=%d trips=%d promotions=%d denied=%d rollbacks=%d probation=%v\n",
			gs.SuppressedMitigations, gs.BudgetTrips, gs.Promotions, gs.DeniedPromotions,
			gs.Rollbacks, gs.ProbationActive)
	}
	if coord != nil {
		printFleet(coord.Stats())
	}
	fmt.Print("lineage:")
	for i, v := range lineage {
		if i > 0 {
			fmt.Print(" <-")
		}
		fmt.Printf(" %s", v)
	}
	fmt.Println()
	if *save != "" {
		fmt.Printf("saved serving model to %s\n", *save)
	}
}

// workerFault is one parsed -kill-worker/-rejoin-worker entry.
type workerFault struct {
	worker int
	kind   string // fleet fault: "kill" or "rejoin"
	at     time.Time
}

// parseWorkerFaults parses the id@day schedules and merges them into one
// time-sorted fault list (stable, so a kill and rejoin on the same day
// keep kill-first order).
func parseWorkerFaults(kill, rejoin string, workers int, days float64, start time.Time) ([]workerFault, error) {
	var out []workerFault
	parse := func(list, kind string) error {
		if list == "" {
			return nil
		}
		for _, entry := range strings.Split(list, ",") {
			id, day, ok := strings.Cut(strings.TrimSpace(entry), "@")
			if !ok {
				return fmt.Errorf("-%s-worker entry %q is not id@day", kind, entry)
			}
			w, err := strconv.Atoi(id)
			if err != nil || w < 0 || w >= workers {
				return fmt.Errorf("-%s-worker entry %q: worker outside the %d-worker fleet", kind, entry, workers)
			}
			d, err := strconv.ParseFloat(day, 64)
			if err != nil || d <= 0 || d >= days {
				return fmt.Errorf("-%s-worker entry %q: day outside (0, %v)", kind, entry, days)
			}
			out = append(out, workerFault{worker: w, kind: kind, at: start.Add(time.Duration(d * 24 * float64(time.Hour)))})
		}
		return nil
	}
	if err := parse(kill, "kill"); err != nil {
		return nil, err
	}
	if err := parse(rejoin, "rejoin"); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at.Before(out[j].at) })
	return out, nil
}

// applyWorkerFault drives one scheduled fault into the transport,
// narrating it on the text log's day scale.
func applyWorkerFault(tr *fleet.ChanTransport, f workerFault, start time.Time) {
	switch f.kind {
	case "kill":
		tr.Kill(f.worker)
	case "rejoin":
		tr.Rejoin(f.worker)
	}
	fmt.Fprintf(os.Stderr, "uerlserve: [day %5.1f] %s worker %d\n",
		f.at.Sub(start).Hours()/24, f.kind, f.worker)
}

// printFleet renders the fleet health report on the text log.
func printFleet(st fleet.Stats) {
	fmt.Printf("fleet: committed %s, failovers=%d rejoins=%d replayed=%d events over %d nodes, acked=%d, orphans=%d\n",
		st.Committed, st.Failovers, st.Rejoins, st.ReplayedEvents, st.ReplayedNodes,
		st.AckedEvents, st.OrphanNodes)
	fmt.Printf("journal: %d nodes, appended=%d deduped=%d trimmed=%d\n",
		st.Journal.Nodes, st.Journal.Appended, st.Journal.Deduped, st.Journal.Trimmed)
	for _, w := range st.Workers {
		fmt.Printf("  worker %d: %-7s nodes=%d", w.ID, w.State, w.OwnedNodes)
		if w.Stats != nil {
			fmt.Printf(" serving=%s", w.Stats.ServingVersion)
			if w.Stats.Guard != nil {
				fmt.Printf(" vetoes=%d", w.Stats.Guard.SuppressedMitigations)
			}
		}
		fmt.Println()
	}
}

// initialPolicy resolves the starting policy.
func initialPolicy(kind, model string) (uerl.Policy, error) {
	if model != "" {
		return uerl.LoadModelFile(model)
	}
	switch kind {
	case "always":
		return uerl.AlwaysPolicy(), nil
	case "never":
		return uerl.NeverPolicy(), nil
	}
	return nil, fmt.Errorf("unknown -policy %q (want always or never, or use -model)", kind)
}

// generateStream synthesizes the two-phase drifting telemetry stream and
// converts it to serving events (retirements, an administrative record,
// are not node telemetry and are skipped).
func generateStream(seed int64, nodes int, days, driftDay, driftMult float64) ([]uerl.Event, int) {
	base := telemetry.Default().Scale(float64(nodes) / 3056)
	base.Nodes = nodes
	base.Seed = seed
	// Liven the per-DIMM rates up: the full-scale defaults are calibrated
	// for a two-year log, while this scenario runs days.
	base.CEEntriesPerDay *= 4
	base.FaultyDIMMFraction *= 2

	phase1 := base
	phase1.Duration = time.Duration(days * 24 * float64(time.Hour))
	logs := []*errlog.Log{}
	if driftDay > 0 && driftDay < days {
		phase1.Duration = time.Duration(driftDay * 24 * float64(time.Hour))
		phase2 := base
		phase2.Seed = seed + 1
		phase2.Start = phase1.Start.Add(phase1.Duration)
		phase2.Duration = time.Duration((days - driftDay) * 24 * float64(time.Hour))
		// The fault-mode change: CE records arrive more often and carry
		// larger bursts, and more DIMMs fail.
		phase2.CEEntriesPerDay *= driftMult
		phase2.MeanCEBurst *= driftMult
		phase2.FaultyDIMMFraction *= 2
		logs = append(logs, telemetry.Generate(phase1), telemetry.Generate(phase2))
	} else {
		logs = append(logs, telemetry.Generate(phase1))
	}

	var out []uerl.Event
	ues := 0
	for _, log := range logs {
		for _, e := range log.Events {
			var typ uerl.EventType
			switch e.Type {
			case errlog.CE:
				typ = uerl.CorrectedError
			case errlog.UEWarning:
				typ = uerl.UEWarning
			case errlog.Boot:
				typ = uerl.NodeBoot
			case errlog.UE:
				typ = uerl.UncorrectedError
				ues++
			default:
				continue
			}
			out = append(out, uerl.Event{
				Time: e.Time, Node: e.Node, DIMM: e.DIMM, Type: typ, Count: e.Count,
				Rank: e.Rank, Bank: e.Bank, Row: e.Row, Col: e.Col,
			})
		}
	}
	return out, ues
}

// printSummary renders the scenario survival summary as the text log.
func printSummary(sum scenario.Summary) {
	fmt.Printf("scenario %s: %d nodes, %.0f days, seed %d, guarded=%v\n",
		sum.Scenario, sum.Nodes, sum.DurationDays, sum.Seed, sum.Guarded)
	st := sum.Stream
	fmt.Printf("stream: %d events, %d generated + %d injected UEs, %d dropped, %d delayed, %d duplicated, %d attack windows\n",
		st.Events, st.GeneratedUEs, st.InjectedUEs, st.Dropped, st.Delayed, st.Duplicated, st.AttackWindows)
	sv := sum.Survival
	fmt.Printf("survival: lost %.1f node-hours (UE %.1f + mitigation %.1f over %d mitigations)\n",
		sv.LostNodeHours, sv.UENodeHours, sv.MitigationNodeHours, sv.Mitigations)
	fmt.Printf("recall %.4f overall, %.4f under attack (%d/%d attack UEs mitigated); vetoed %d decisions (%d during attack)\n",
		sv.Recall, sv.RecallUnderAttack, sv.AttackMitigated, sv.AttackUEs,
		sv.VetoedDecisions, sv.VetoedDuringAttack)
	lc := sum.Lifecycle
	fmt.Printf("lifecycle: generation %d, serving %s, swap churn %d\n",
		lc.FinalGeneration, lc.ServingVersion, lc.SwapChurn)
	for _, kind := range []uerl.LifecycleEventKind{
		uerl.LifecycleDrift, uerl.LifecycleRetrain, uerl.LifecycleRetrainFailed,
		uerl.LifecyclePromote, uerl.LifecycleReject, uerl.LifecycleProbationPass,
		uerl.LifecycleRollback, uerl.LifecycleApprovalDeny,
		uerl.LifecycleBudgetTrip, uerl.LifecycleBudgetRecover,
	} {
		if n := lc.EventCounts[string(kind)]; n > 0 {
			fmt.Printf("  %-14s %d\n", kind, n)
		}
	}
	fmt.Print("lineage:")
	for i, v := range lc.Lineage {
		if i > 0 {
			fmt.Print(" <-")
		}
		fmt.Printf(" %s", v)
	}
	fmt.Println()
}

// lineageChain reconstructs the served model's version chain, newest
// first, ending at the initial policy. It walks Parent links recorded on
// the lifecycle events starting from the final serving version, so a
// post-rollback chain correctly ends where serving actually landed
// rather than at the last promotion.
func lineageChain(initial, serving string, events []uerl.LifecycleEvent) []string {
	parent := map[string]string{}
	for _, ev := range events {
		if ev.ModelVersion != "" && ev.Parent != "" {
			parent[ev.ModelVersion] = ev.Parent
		}
	}
	chain := []string{}
	seen := map[string]bool{}
	for v := serving; v != "" && !seen[v]; v = parent[v] {
		chain = append(chain, v)
		seen[v] = true
	}
	if len(chain) == 0 || chain[len(chain)-1] != initial {
		chain = append(chain, initial)
	}
	return chain
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uerlserve:", err)
	os.Exit(1)
}
