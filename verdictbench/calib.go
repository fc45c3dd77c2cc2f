package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed drifts by tens of percent over minutes while the
// process keeps its full CPU share: on the reference host (README.md,
// "Host speed") rounds of the same instances ran 0.12–0.2 apart in log
// standard deviation between 30-second windows, far more than any number
// of rounds inside one run averages out. So every run also times a fixed
// calibration kernel of its own before each set-up and each timed round
// and scales every time it reports by the host's speed: a time figure
// reads as the time the reference host would have taken. The kernel is
// the benchmark's own code, so a change to the program moves the measured
// work but never the scale.
//
// The kernel sorts arrays that fit in the core's own caches: a kernel
// that walked a graph of a few MiB (shared cache and memory) drifted twice
// as much as the sort between windows in which the verdict loop itself
// stayed within 4%. The workers draw the sorts from one shared pool, as
// batch workers draw instances, so a worker on a slowed CPU does less of
// the work instead of holding up the others.
const (
	// refCalib is the median calibration time on the reference host; it
	// fixes only the unit of the scale.
	refCalib = 25 * time.Millisecond
	// One sample has the workers fill calibSorts arrays per worker of
	// calibSortLen random numbers, drawn from a shared pool, and sort them;
	// one calibration is the median of calibSamples samples, so a single
	// preempted sample does not move it.
	calibSortLen = 4096
	calibSorts   = 60
	calibSamples = 5
)

// calibSink keeps the compiler from dropping the kernel's work.
var calibSink int

// calibrate times one calibration on the given number of workers. The
// scratch space is allocated and the heap collected before the clock
// starts, and the timed part allocates nothing, so neither the program's
// heap nor its GC pacing moves it.
func calibrate(workers int) time.Duration {
	type scratch struct {
		nums []int
		rng  *rand.Rand
		sum  int
	}
	ws := make([]scratch, workers)
	for w := range ws {
		ws[w] = scratch{nums: make([]int, calibSortLen), rng: rand.New(rand.NewSource(int64(w) + 2))}
	}
	runtime.GC()
	samples := make([]time.Duration, calibSamples)
	for i := range samples {
		var next atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := range ws {
			wg.Add(1)
			go func(s *scratch) {
				defer wg.Done()
				for next.Add(1) <= int64(calibSorts*workers) {
					for i := range s.nums {
						s.nums[i] = s.rng.Int()
					}
					sort.Ints(s.nums)
					s.sum += s.nums[0] & 1
				}
			}(&ws[w])
		}
		wg.Wait()
		samples[i] = time.Since(start)
	}
	for _, s := range ws {
		calibSink += s.sum
	}
	return time.Duration(medianDuration(samples))
}

// hostScale turns a time measured in this run into reference-host time:
// the reference calibration over the median of this run's calibrations.
// Above 1 the host ran faster than the reference.
func hostScale(calibs []time.Duration) float64 {
	return float64(refCalib) / medianDuration(calibs)
}

func medianDuration(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return median(vals)
}
