// Command verdictbench measures the time to a verdict and the executions
// forced on the black-box legacy component, end to end through the
// program's public entry points: generated inputs (gen.New,
// experiments.GenerateScenario) verified by batch.Verify with a shared
// automata.MemoCache at one worker per CPU, optionally over a memostore.
//
// Each workload is a closed loop in one process: whole rounds over a fixed
// instance set, the next round starting when the previous one ends. Every
// verdict is checked against a ground truth decided by ctl.Reference on
// the true composition.
//
//	verdictbench --workload gen-default --seed 1 --seconds 15 --trace 0
//	verdictbench steady --workload gen-wide --runs 10 --seconds 15
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 a traced run reports the per-layer
// ones. See README.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"muml/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(benchmain(os.Args[1:]))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchmain(args []string) int {
	fs := flag.NewFlagSet("verdictbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: gen-default, gen-wide, scenario-deep or store-warm")
	seed := fs.Int64("seed", 1, "seed the instance set is generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	workers := fs.Int("workers", runtime.NumCPU(), "batch workers (default: one per CPU)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "verdictbench-store-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(os.Stderr, "verdictbench: workload=%s seed=%d instances=%d workers=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		w.name, *seed, w.n, *workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var r *runner
	var calibs []time.Duration
	setups := make([]float64, setupReps)
	for i := range setups {
		calibs = append(calibs, calibrate(*workers))
		var t setupTimes
		r, t, err = setup(w, *seed, *workers, filepath.Join(tmp, "store"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "verdictbench: setup:", err)
			return 1
		}
		setups[i] = t.total.Seconds()
		fmt.Fprintf(os.Stderr, "verdictbench: setup %d: generate=%.3fs truth=%.3fs fill=%.3fs warmup=%.3fs total=%.3fs\n",
			i, t.generate.Seconds(), t.truth.Seconds(), t.fill.Seconds(), t.warmup.Seconds(), t.total.Seconds())
	}

	var reg *obs.Registry
	if *trace == 1 {
		reg = obs.NewRegistry()
	}
	untraced, traced, baseline, err := r.timedRounds(*seconds, reg)
	res := result{Correct: err == nil}
	for _, w := range []*window{untraced, traced} {
		res.Attempted += len(w.total.durations)
		res.Failed += w.total.failed
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench: check failed:", err)
		printResult(res)
		return 1
	}
	calibs = append(calibs, r.calibs...)
	scale := hostScale(calibs)
	fmt.Fprintf(os.Stderr, "verdictbench: calibration median %.2fms over %d, host scale %.4f; unscaled: setup %.3fs, verdicts/s %.1f, p50 %.4fms, p99 %.4fms\n",
		medianDuration(calibs)/1e6, len(calibs), scale, median(setups), untraced.throughput(),
		percentile(untraced.total.durations, 0.50), percentile(untraced.total.durations, 0.99))
	if *trace == 1 {
		res.Metrics, err = layerMetrics(untraced, traced, reg, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "verdictbench: traced run:", err)
			return 1
		}
		res.Metrics["host.calib_ms"] = metric{medianDuration(calibs) / 1e6, "ms"}
	} else {
		res.Metrics = endToEnd(untraced, baseline, median(setups), scale)
	}
	fmt.Fprintf(os.Stderr, "verdictbench: %d rounds, %d verdicts, verdicts/s by round:",
		len(untraced.rounds)+len(traced.rounds), res.Attempted-res.Failed)
	for _, st := range untraced.rounds {
		fmt.Fprintf(os.Stderr, " %.0f", st.throughput())
	}
	fmt.Fprint(os.Stderr, "; calibrations (ms):")
	for _, c := range calibs {
		fmt.Fprintf(os.Stderr, " %.1f", float64(c)/1e6)
	}
	fmt.Fprintln(os.Stderr)
	printResult(res)
	return 0
}

func printResult(res result) {
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		return
	}
	fmt.Println(string(line))
}

// endToEnd derives the metrics a user of the tools sees from the untraced
// window. Times are scaled to the reference host by scale (calib.go).
func endToEnd(w *window, baseline uint64, setup, scale float64) map[string]metric {
	t := &w.total
	v := float64(t.verdicts)
	peaks := make([]float64, len(w.heapPeaks))
	for i, p := range w.heapPeaks {
		peaks[i] = float64(int64(p)-int64(baseline)) / (1 << 20)
	}
	return map[string]metric{
		"setup_s":                   {setup * scale, "s"},
		"verdicts_per_s":            {w.throughput() / scale, "1/s"},
		"verdict_p50_ms":            {percentile(t.durations, 0.50) * scale, "ms"},
		"alloc_kb_per_verdict":      {float64(t.allocBytes) / 1024 / v, "KiB"},
		"allocs_per_verdict":        {float64(t.allocObjects) / v, "count"},
		"heap_peak_mb":              {median(peaks), "MiB"},
		"legacy_steps_per_verdict":  {float64(t.steps) / v, "count"},
		"legacy_resets_per_verdict": {float64(t.resets) / v, "count"},
	}
}

// layerMetrics derives the per-layer breakdown from the traced rounds.
// Times and counts are per verdict, and times are scaled to the reference
// host like the end-to-end ones; core.unattributed_ms is the instance
// wall time the core phase timers do not cover. Phases that overlapped,
// or timers that counted work outside the instances, would make it
// negative, so a negative residual fails the traced run.
func layerMetrics(untraced, traced *window, reg *obs.Registry, scale float64) (map[string]metric, error) {
	t := &traced.total
	v := float64(t.verdicts)
	perVerdict := func(n int64) float64 { return float64(n) / v }
	counter := func(name string) float64 { return perVerdict(reg.Counter(name).Value()) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / v * scale }
	var wall, phases time.Duration
	for _, d := range t.durations {
		wall += d
	}
	for _, p := range []string{"core.compose", "core.check", "core.replay", "core.probe"} {
		phases += reg.Timer(p).Total()
	}
	if wall < phases {
		return nil, fmt.Errorf("core phase timers sum to %v, more than the instance wall time %v", phases, wall)
	}
	return map[string]metric{
		"core.compose_ms":           {ms(reg.Timer("core.compose").Total()), "ms"},
		"core.check_ms":             {ms(reg.Timer("core.check").Total()), "ms"},
		"core.replay_ms":            {ms(reg.Timer("core.replay").Total()), "ms"},
		"core.probe_ms":             {ms(reg.Timer("core.probe").Total()), "ms"},
		"core.unattributed_ms":      {ms(wall - phases), "ms"},
		"core.iterations":           {perVerdict(t.iterations), "count"},
		"automata.composed_states":  {counter("automata.composed_states"), "count"},
		"automata.intern_hits":      {counter("automata.intern_hits"), "count"},
		"automata.intern_misses":    {counter("automata.intern_misses"), "count"},
		"automata.product_patches":  {counter("automata.product_patches"), "count"},
		"automata.product_rebuilds": {counter("automata.product_rebuilds"), "count"},
		"automata.peak_states":      {perVerdict(t.peakStates), "count"},
		"runtime.gc_cycles":         {perVerdict(int64(t.gcCycles)), "count"},
		"ctl.words_scanned":         {counter("ctl.words_scanned"), "count"},
		"ctl.states_touched":        {counter("ctl.states_touched"), "count"},
		"ctl.pool_hits":             {counter("ctl.pool_hits"), "count"},
		"ctl.pool_misses":           {counter("ctl.pool_misses"), "count"},
		"replay.replays":            {counter("replay.replays"), "count"},
		"replay.probes":             {counter("replay.probes"), "count"},
		"batch.steals":              {perVerdict(int64(t.steals)), "count"},
		"memo.hits":                 {perVerdict(t.memoHits), "count"},
		"memo.misses":               {perVerdict(t.memoMisses), "count"},
		"store.load_us":             {perVerdict(t.store.loadNS) / 1e3 * scale, "us"},
		"store.loads":               {perVerdict(t.store.loads), "count"},
		"store.bytes_read":          {perVerdict(t.store.bytesRead), "B"},
		"legacy.step_us":            {perVerdict(t.stepNS) / 1e3 * scale, "us"},
		"obs.overhead_pct":          {(untraced.throughput()/traced.throughput() - 1) * 100, "%"},
	}, nil
}
