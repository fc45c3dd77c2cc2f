package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/core"
	"muml/internal/legacy"
	"muml/internal/memostore"
	"muml/internal/obs"
	"muml/internal/replay"
)

const (
	// setupReps is how often a run sets up from scratch; setup_s is the
	// median, which keeps one slow repetition on a shared host from
	// moving it.
	setupReps = 3
	// instanceDeadline turns a hung instance into a failed operation
	// instead of a stalled run.
	instanceDeadline = 20 * time.Second
	// heapSampleEvery is the heap sampler period of the timed window.
	heapSampleEvery = time.Millisecond
	// minRounds keeps the timed window going until verdicts_per_s is a
	// median of at least three rounds, also on a slow host.
	minRounds = 3
)

// runner owns one workload's fixed instance set and runs closed-loop
// rounds over it: the next round starts when the previous one ends.
type runner struct {
	insts   []*instance
	workers int
	store   *timedStore // store-warm only
	// timeSteps makes the component wrappers time every Step (traced
	// rounds only).
	timeSteps bool
	comps     []*countingComponent
	// calibs holds the calibration timed before each timed round.
	calibs []time.Duration
}

// roundStats is what one round of the instance set measured.
type roundStats struct {
	wall                               time.Duration
	durations                          []time.Duration
	verdicts, failed                   int
	steps, resets, stepNS              int64
	memoHits, memoMisses               int64
	iterations, peakStates             int64
	steals                             int
	allocBytes, allocObjects, gcCycles uint64
	store                              storeStats
	outcomes                           []outcome
	errs                               []error
}

// items wraps the pre-generated inputs for one round. Build only wraps the
// ground-truth automaton as a fresh black box, so no generation work runs
// inside a verdict's time.
func (r *runner) items() []batch.Item {
	items := make([]batch.Item, len(r.insts))
	r.comps = make([]*countingComponent, len(r.insts))
	for k, in := range r.insts {
		items[k] = batch.Item{Name: in.name, Build: func() (batch.Problem, error) {
			comp, err := legacy.WrapAutomaton(in.legacy)
			if err != nil {
				return batch.Problem{}, err
			}
			c := &countingComponent{inner: comp, timed: r.timeSteps}
			r.comps[k] = c
			return batch.Problem{Context: in.context, Component: c, Interface: in.iface, Property: in.property}, nil
		}}
	}
	return items
}

// round verifies the whole instance set once through batch.Verify with a
// fresh shared memo cache (over the store, for store-warm), so every
// round does the same work.
func (r *runner) round(reg *obs.Registry) (*roundStats, error) {
	memo := automata.NewMemoCache(nil)
	if r.store != nil {
		memo.SetBackend(r.store)
	}
	items := r.items()
	buf := newSamples()
	m0 := readMem(buf)
	s0 := r.store.snapshot()
	start := time.Now()
	sum, err := batch.Verify(items, batch.Options{
		Workers:  r.workers,
		Deadline: instanceDeadline,
		Memo:     memo,
		Metrics:  reg,
	})
	wall := time.Since(start)
	m1 := readMem(buf)
	if err != nil {
		return nil, err
	}
	st := &roundStats{wall: wall, steals: sum.Steals,
		memoHits: sum.CacheHits, memoMisses: sum.CacheMisses,
		allocBytes:   m1.allocBytes - m0.allocBytes,
		allocObjects: m1.allocObjects - m0.allocObjects,
		gcCycles:     m1.gcCycles - m0.gcCycles}
	st.store = r.store.snapshot().minus(s0)
	st.durations = make([]time.Duration, len(sum.Results))
	st.outcomes = make([]outcome, len(sum.Results))
	st.errs = make([]error, len(sum.Results))
	for i, res := range sum.Results {
		st.durations[i] = res.Duration
		st.errs[i] = res.Err
		if res.Err != nil {
			st.failed++
			continue
		}
		st.verdicts++
		st.outcomes[i] = outcome{verdict: res.Verdict, kind: res.Kind}
		st.iterations += int64(res.Iterations)
		st.peakStates += res.Cost.PeakStates
	}
	for _, c := range r.comps {
		if c != nil {
			st.steps += c.steps
			st.resets += c.resets
			st.stepNS += c.stepNS
		}
	}
	return st, nil
}

// checkWarm checks a round that runs after set-up: its verdicts, and for
// store-warm that the store served it.
func (r *runner) checkWarm(st *roundStats) error {
	if r.store != nil && st.store.hits == 0 {
		return fmt.Errorf("the round was not served from the store")
	}
	return r.check(st)
}

// check compares every answered instance of a round with its ground truth
// and returns the first wrong verdict.
func (r *runner) check(st *roundStats) error {
	for i, o := range st.outcomes {
		if st.errs[i] != nil {
			continue
		}
		if err := checkOutcome(r.insts[i].truth, o); err != nil {
			return fmt.Errorf("%s: %w", r.insts[i].name, err)
		}
	}
	return nil
}

// flipSelfTest proves on a checked round that the check is not vacuous:
// with one verdict flipped it must fail.
func (r *runner) flipSelfTest(st *roundStats) error {
	for i := range st.outcomes {
		if st.errs[i] != nil {
			continue
		}
		if r.check(st.flipped(i)) == nil {
			return fmt.Errorf("self-test: flipping the verdict of %s went unnoticed", r.insts[i].name)
		}
		return nil
	}
	return fmt.Errorf("self-test: no answered instance to flip")
}

// flipped returns a copy of the round with the verdict of instance i
// turned into its opposite.
func (st *roundStats) flipped(i int) *roundStats {
	c := *st
	c.outcomes = append([]outcome(nil), st.outcomes...)
	c.outcomes[i] = flip(st.outcomes[i])
	return &c
}

// flip turns a verdict into its opposite: proven becomes a deadlock
// violation, any violation becomes proven.
func flip(o outcome) outcome {
	if o.verdict == core.VerdictProven {
		return outcome{verdict: core.VerdictViolation, kind: core.ViolationDeadlock}
	}
	return outcome{verdict: core.VerdictProven}
}

// setupTimes splits one set-up into its parts.
type setupTimes struct {
	generate, truth, fill, warmup, total time.Duration
}

// setup generates the instance set, classifies it against the ground
// truth, fills the store with a cold pass (store-warm) and runs one
// checked warm-up round.
func setup(w workload, seed int64, workers int, tmp string) (*runner, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	insts, err := w.generate(seed, w.n)
	if err != nil {
		return nil, t, fmt.Errorf("generate: %w", err)
	}
	t.generate = time.Since(start)
	mark := time.Now()
	if err := groundTruth(insts); err != nil {
		return nil, t, err
	}
	t.truth = time.Since(mark)
	r := &runner{insts: insts, workers: workers}
	if w.store {
		mark = time.Now()
		if err := os.RemoveAll(tmp); err != nil {
			return nil, t, err
		}
		st, err := memostore.Open(tmp, memostore.Options{MaxBytes: -1})
		if err != nil {
			return nil, t, err
		}
		r.store = &timedStore{inner: st}
		cold, err := r.round(nil)
		if err != nil {
			return nil, t, err
		}
		if err := r.check(cold); err != nil {
			return nil, t, fmt.Errorf("cold fill: %w", err)
		}
		t.fill = time.Since(mark)
	}
	mark = time.Now()
	warm, err := r.round(nil)
	if err != nil {
		return nil, t, err
	}
	if err := r.checkWarm(warm); err != nil {
		return nil, t, fmt.Errorf("warm-up: %w", err)
	}
	t.warmup = time.Since(mark)
	t.total = time.Since(start)
	if err := r.flipSelfTest(warm); err != nil {
		return nil, t, err
	}
	return r, t, nil
}

// runtime/metrics samples read around the timed window.
var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

type memSample struct {
	allocBytes, allocObjects, gcCycles, liveHeap uint64
}

func readMem(buf []metrics.Sample) memSample {
	metrics.Read(buf)
	return memSample{
		allocBytes:   buf[0].Value.Uint64(),
		allocObjects: buf[1].Value.Uint64() + buf[2].Value.Uint64(),
		gcCycles:     buf[3].Value.Uint64(),
		liveHeap:     buf[4].Value.Uint64(),
	}
}

func newSamples() []metrics.Sample {
	buf := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		buf[i].Name = n
	}
	return buf
}

// heapSampler tracks the peak live heap while a round runs. The live heap
// is what the last GC cycle marked reachable; unlike the heap in use it
// does not swing with where the round falls in the GC cycle.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		buf := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(buf)
			if v := buf[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler and returns the peak it saw.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// window is the aggregate of the timed rounds of one mode: the rounds,
// the peak live heap of each, and their sums.
type window struct {
	rounds    []*roundStats
	heapPeaks []uint64
	total     roundStats
}

func (w *window) add(st *roundStats, heapPeak uint64) {
	w.rounds = append(w.rounds, st)
	w.heapPeaks = append(w.heapPeaks, heapPeak)
	t := &w.total
	t.wall += st.wall
	t.durations = append(t.durations, st.durations...)
	t.verdicts += st.verdicts
	t.failed += st.failed
	t.steps += st.steps
	t.resets += st.resets
	t.stepNS += st.stepNS
	t.memoHits += st.memoHits
	t.memoMisses += st.memoMisses
	t.iterations += st.iterations
	t.peakStates += st.peakStates
	t.steals += st.steals
	t.allocBytes += st.allocBytes
	t.allocObjects += st.allocObjects
	t.gcCycles += st.gcCycles
	t.store = t.store.plus(st.store)
}

// throughput is the median over rounds of verdicts per second of wall
// time.
func (w *window) throughput() float64 {
	vals := make([]float64, len(w.rounds))
	for i, st := range w.rounds {
		vals[i] = st.throughput()
	}
	return median(vals)
}

func (st *roundStats) throughput() float64 {
	return float64(st.verdicts) / st.wall.Seconds()
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of the durations in
// milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank]) / float64(time.Millisecond)
}

// tracing switches the program's own observability hooks and the
// benchmark's wrapper timers on or off between rounds.
func (r *runner) tracing(reg *obs.Registry) {
	if reg == nil {
		automata.DisableObservability()
		replay.DisableObservability()
	} else {
		automata.EnableObservability(nil, reg)
		replay.EnableObservability(reg)
	}
	r.timeSteps = reg != nil
	if r.store != nil {
		r.store.timed.Store(reg != nil)
	}
}

// timedRounds runs whole rounds until the window has lasted the given
// time and held at least minRounds untraced rounds, timing a calibration
// before each round. With a registry, rounds alternate untraced and traced
// so both see the same host conditions; without, every round is
// untraced. On a failed check the
// windows hold the rounds run so far, the failing one included.
func (r *runner) timedRounds(seconds float64, reg *obs.Registry) (untraced, traced *window, baseline uint64, err error) {
	untraced, traced = &window{}, &window{}
	runtime.GC()
	baseline = readMem(newSamples()).liveHeap
	start := time.Now()
	for k := 0; time.Since(start).Seconds() < seconds || len(untraced.rounds) < minRounds ||
		(reg != nil && k%2 == 1); k++ {
		var use *obs.Registry
		target := untraced
		if reg != nil && k%2 == 1 {
			use, target = reg, traced
		}
		r.calibs = append(r.calibs, calibrate(r.workers))
		r.tracing(use)
		h := startHeapSampler()
		st, err := r.round(use)
		peak := h.Stop()
		r.tracing(nil)
		if err != nil {
			return untraced, traced, baseline, err
		}
		target.add(st, peak)
		if err := r.checkWarm(st); err != nil {
			return untraced, traced, baseline, err
		}
	}
	return untraced, traced, baseline, nil
}
