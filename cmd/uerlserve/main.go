// Command uerlserve runs the online continual-learning serving loop on a
// declarative scenario (see scenarios/ and internal/scenario). The spec
// fixes everything about the run: the fleet and its telemetry, the drift
// and fault-injection schedules, the workload's UE and mitigation costs,
// the learner and guard configuration, and — with a serving section — the
// distributed fleet and its worker faults. uerlserve compiles the spec,
// serves the stream through Controller (or fleet coordinator) +
// OnlineLearner (+ Guard), and prints the survival summary: lost
// node-hours, recall, vetoes, lifecycle event counts, the served model's
// lineage and, for fleet runs, failover and per-worker health.
//
// Usage:
//
//	uerlserve -scenario spec.json [-json] [-model artifact.json] [-save final.json]
//
// -json prints the canonical summary encoding, byte-identical to the
// scenario's golden under scenarios/golden. -model serves a saved model
// artifact from event zero instead of the spec's initial policy; -save
// writes the policy serving at the end of the run, its lineage parent
// chained to the model it replaced. Ad-hoc runs are specs too: copy a
// named scenario and edit it.
//
// The whole run is deterministic for a fixed spec and initial model.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	uerl "repro"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "uerlserve:", err)
		os.Exit(1)
	}
}

// run parses args, serves the scenario and writes the summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("uerlserve", flag.ContinueOnError)
	scenarioFile := fs.String("scenario", "", "scenario spec (JSON file) to serve; required")
	jsonOut := fs.Bool("json", false, "emit the canonical JSON summary instead of the text report")
	model := fs.String("model", "", "serve this model artifact from event zero instead of the spec's initial policy")
	save := fs.String("save", "", "save the final serving model artifact to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *scenarioFile == "" {
		return errors.New("-scenario is required (see scenarios/ for the named specs)")
	}

	data, err := os.ReadFile(*scenarioFile)
	if err != nil {
		return err
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *scenarioFile, err)
	}
	// Load the artifact before compiling so a bad -model fails before
	// the stream is generated.
	var initial uerl.Policy
	if *model != "" {
		if initial, err = uerl.LoadModelFile(*model); err != nil {
			return fmt.Errorf("-model: %w", err)
		}
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", *scenarioFile, err)
	}
	if initial != nil {
		c.Initial = initial
	}
	var final uerl.Policy
	if *save != "" {
		c.Probe = func(s uerl.Serving) func() {
			return func() { final = s.Policy() }
		}
	}
	sum, err := scenario.RunCompiled(c)
	if err != nil {
		return err
	}
	if *save != "" {
		if err := uerl.SaveModelFile(*save, final); err != nil {
			return err
		}
	}

	if *jsonOut {
		out, err := scenario.EncodeSummary(sum)
		if err != nil {
			return err
		}
		_, err = stdout.Write(out)
		return err
	}
	printSummary(stdout, sum)
	if *save != "" {
		fmt.Fprintf(stdout, "saved serving model to %s\n", *save)
	}
	return nil
}

// printSummary renders the scenario survival summary as the text report.
func printSummary(w io.Writer, sum scenario.Summary) {
	fmt.Fprintf(w, "scenario %s: %d nodes, %.0f days, seed %d, guarded=%v, initial %s\n",
		sum.Scenario, sum.Nodes, sum.DurationDays, sum.Seed, sum.Guarded, sum.InitialVersion)
	st := sum.Stream
	fmt.Fprintf(w, "stream: %d events, %d generated + %d injected UEs, %d dropped, %d delayed, %d duplicated, %d attack windows\n",
		st.Events, st.GeneratedUEs, st.InjectedUEs, st.Dropped, st.Delayed, st.Duplicated, st.AttackWindows)
	sv := sum.Survival
	fmt.Fprintf(w, "survival: lost %.1f node-hours (UE %.1f + mitigation %.1f over %d mitigations)\n",
		sv.LostNodeHours, sv.UENodeHours, sv.MitigationNodeHours, sv.Mitigations)
	fmt.Fprintf(w, "recall %.4f overall, %.4f under attack (%d/%d attack UEs mitigated); vetoed %d decisions (%d during attack)\n",
		sv.Recall, sv.RecallUnderAttack, sv.AttackMitigated, sv.AttackUEs,
		sv.VetoedDecisions, sv.VetoedDuringAttack)
	lc := sum.Lifecycle
	fmt.Fprintf(w, "lifecycle: generation %d, serving %s, swap churn %d\n",
		lc.FinalGeneration, lc.ServingVersion, lc.SwapChurn)
	for _, kind := range []uerl.LifecycleEventKind{
		uerl.LifecycleDrift, uerl.LifecycleRetrain, uerl.LifecycleRetrainFailed,
		uerl.LifecyclePromote, uerl.LifecycleReject, uerl.LifecycleProbationPass,
		uerl.LifecycleRollback, uerl.LifecycleApprovalDeny,
		uerl.LifecycleBudgetTrip, uerl.LifecycleBudgetRecover,
	} {
		if n := lc.EventCounts[string(kind)]; n > 0 {
			fmt.Fprintf(w, "  %-14s %d\n", kind, n)
		}
	}
	if f := sum.Fleet; f != nil {
		fmt.Fprintf(w, "fleet: %d workers, failovers=%d rejoins=%d orphans=%d, replayed %d events over %d nodes, acked=%d\n",
			f.Workers, f.Failovers, f.Rejoins, f.OrphanNodes, f.ReplayedEvents, f.ReplayedNodes, f.AckedEvents)
		fmt.Fprintf(w, "journal: appended=%d deduped=%d trimmed=%d; degraded decisions=%d, max stale events=%d\n",
			f.JournalAppended, f.JournalDeduped, f.JournalTrimmed, f.DegradedDecisions, f.MaxStaleEvents)
		for _, ws := range f.WorkerStates {
			fmt.Fprintf(w, "  worker %d: %-7s nodes=%d serving=%s vetoes=%d\n",
				ws.ID, ws.State, ws.OwnedNodes, ws.ServingVersion, ws.Vetoes)
		}
	}
	fmt.Fprintf(w, "lineage: %s\n", strings.Join(lc.Lineage, " <- "))
}
