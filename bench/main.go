// Command bench is the repository benchmark. It runs one workload from a
// seed, measures it for a fixed number of seconds, checks that the
// program's outputs are correct, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 a separate traced run reports the
// per-layer ones ("per_layer"), timed around calls into each layer's
// public functions from this package's own files.
//
// Build and run it through run.sh from the repository root:
//
//	bash bench/run.sh --workload online-guarded --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
	{"events_per_s", "1/s"},
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1, in BENCHMARK.json order. A layer a workload does not
// exercise reports 0: that workload bypasses it.
var perLayer = []metricDef{
	{"evalx.ticks_s", "s"},
	{"rf.train_s", "s"},
	{"evalx.threshold_s", "s"},
	{"rl.train_s", "s"},
	{"rl.steps", "count"},
	{"rl.step_us", "us"},
	{"evalx.replay_s", "s"},
	{"fig3.unattributed_s", "s"},
	{"fig3.rl_saving_pct", "%"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"learner.decision_p50_us", "us"},
	{"learner.decision_p99_us", "us"},
	{"learner.decision_samples", "count"},
	{"serving.lost_node_hours", "node-h"},
	{"poller.poll_per_s", "1/s"},
	{"poller.poll_p99_us", "us"},
	{"controller.observe_ns", "ns"},
	{"controller.recommend_p50_us", "us"},
	{"controller.recommend_p99_us", "us"},
	{"policy.decide_us", "us"},
	{"guard.consult_ns", "ns"},
	{"guard.observe_decision_ns", "ns"},
	{"guard.veto_share", "ratio"},
	{"guard.trips", "count"},
	{"lifecycle.retrains", "count"},
	{"lifecycle.promote_ratio", "ratio"},
	{"lifecycle.retrain_ms", "ms"},
	{"lifecycle.retrain_share", "ratio"},
	{"evalx.shadow_ns", "ns"},
	{"scenario.compile_s", "s"},
	{"scenario.events", "count"},
	{"fleet.observe_p50_us", "us"},
	{"fleet.observe_p99_us", "us"},
	{"fleet.recommend_us", "us"},
	{"fleet.observe_decision_us", "us"},
	{"fleet.deploy_ms", "ms"},
	{"fleet.replayed_events", "count"},
	{"fleet.failovers", "count"},
	{"fleet.dedup_ratio", "ratio"},
	{"fleet.degraded_share", "ratio"},
	{"fleet.acked_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// workload is one benchmark input. run measures it and fills rep.
type workload struct {
	name string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"fig3-repro", runFig3},
	{"online-guarded", runGuarded},
	{"online-fleet", runFleet},
}

// runConfig is the command line as the workloads see it.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// deadline reports whether a timed loop that started at start and has
// completed iters iterations should stop: after the measuring time, but
// never before minIters iterations.
func (c runConfig) deadline(start time.Time, iters int) bool {
	return iters >= minIters && time.Since(start) >= c.seconds
}

// minIters is the fewest timed iterations a run reports medians over.
const minIters = 3

// setupDone reports whether a set-up loop that started at start and has
// set up n times may stop: a run repeats its set-up at least three times
// and for at least two seconds, and setup_s is the median. Each set-up
// starts from a collected heap, as a process's first set-up would.
func setupDone(start time.Time, n int) bool {
	return n >= 3 && time.Since(start) >= 2*time.Second
}

// report collects a run's metrics, its operation counts and the
// correctness problems its checks found.
type report struct {
	metrics   map[string]float64
	notes     []string // printed-only lines, not in the JSON
	attempted int
	failed    int
	problems  []string
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// note records a printed-only figure of this workload, one that is not
// in the JSON's metric set.
func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("report %-30s %16.6f %s", name, v, unit))
}

// fail records a correctness problem; it makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: fig3-repro, online-guarded or online-fleet")
		seed       = flag.Int64("seed", defaultSeed, "workload seed; the benchmark derives every input from it")
		seconds    = flag.Int("seconds", 30, "how long the timed phase measures")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		cpuprofile = flag.String("cpuprofile", "", "with --trace 1, write a CPU profile whose samples carry a layer label")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *cpuprofile); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeed is the seed the benchmark's figures are quoted at. A
// claimed gain must also hold on seed 7, which no change is tuned on.
const defaultSeed = 1

func run(name string, seed int64, seconds, trace int, cpuprofile string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if cpuprofile != "" && trace != 1 {
		return fmt.Errorf("--cpuprofile needs --trace 1")
	}
	cfg := runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1}

	host := hostSignature()
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", name, seed, seconds, trace)

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep := &report{metrics: map[string]float64{}}
	if cfg.trace {
		// A layer this workload bypasses keeps its 0.
		for _, d := range perLayer {
			rep.metrics[d.name] = 0
		}
	}
	if err := w.run(cfg, rep); err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return emit(rep, defs)
}

// emit prints the report lines and the final JSON line. Every metric in
// defs must be present and finite, and no other metric may be: a
// workload that forgets one is a bug of the benchmark, not a result.
func emit(rep *report, defs []metricDef) error {
	out := jsonResult{
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{v, d.unit}
		fmt.Printf("metric %-30s %16.6f %s\n", d.name, v, d.unit)
	}
	if len(rep.metrics) != len(defs) {
		var extra []string
		for name := range rep.metrics {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics %v are not in this run's metric set", extra)
	}
	for _, l := range rep.notes {
		fmt.Println(l)
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("report %-30s %16.6f ratio (%d of %d)\n", "failed_share", share, rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Printf("problem %s\n", p)
	}
	if rep.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	out.Correct = rep.failed == 0 && len(rep.problems) == 0
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
