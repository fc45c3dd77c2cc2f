package main

import (
	"sync/atomic"
	"time"

	"muml/internal/automata"
	"muml/internal/legacy"
	"muml/internal/memostore"
)

// countingComponent wraps the black-box component so the benchmark can
// count the executions the synthesis loop forces on it: the paper's own
// cost measure, since a real legacy component is hardware. Each wrapper
// is confined to the one worker goroutine that runs its instance; the
// counts are read after the batch has returned.
type countingComponent struct {
	inner  *legacy.AutomatonComponent
	timed  bool
	steps  int64
	resets int64
	stepNS int64
}

var (
	_ legacy.Component    = (*countingComponent)(nil)
	_ legacy.Introspector = (*countingComponent)(nil)
)

func (c *countingComponent) Reset() {
	c.resets++
	c.inner.Reset()
}

func (c *countingComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	c.steps++
	if !c.timed {
		return c.inner.Step(in)
	}
	start := time.Now()
	out, ok := c.inner.Step(in)
	c.stepNS += int64(time.Since(start))
	return out, ok
}

// StateName forwards the introspection probe: hiding it would change how
// replay identifies states and so change the work being measured.
func (c *countingComponent) StateName() string { return c.inner.StateName() }

// timedStore is the memo backend seam around the on-disk store: it counts
// loads, hits and bytes read and, in the traced run, times every Load.
type timedStore struct {
	inner     *memostore.Store
	timed     atomic.Bool
	loads     atomic.Int64
	hits      atomic.Int64
	loadNS    atomic.Int64
	bytesRead atomic.Int64
}

var _ automata.MemoBackend = (*timedStore)(nil)

func (s *timedStore) Load(op string, a, b uint64) ([]byte, bool) {
	var start time.Time
	if s.timed.Load() {
		start = time.Now()
	}
	p, ok := s.inner.Load(op, a, b)
	if !start.IsZero() {
		s.loadNS.Add(int64(time.Since(start)))
	}
	s.loads.Add(1)
	if ok {
		s.hits.Add(1)
		s.bytesRead.Add(int64(len(p)))
	}
	return p, ok
}

func (s *timedStore) Save(op string, a, b uint64, payload []byte) {
	s.inner.Save(op, a, b, payload)
}

// storeStats is a reading of a timedStore's counters.
type storeStats struct {
	loads, hits, loadNS, bytesRead int64
}

// snapshot reads the counters; zero without a store.
func (s *timedStore) snapshot() storeStats {
	if s == nil {
		return storeStats{}
	}
	return storeStats{s.loads.Load(), s.hits.Load(), s.loadNS.Load(), s.bytesRead.Load()}
}

func (a storeStats) minus(b storeStats) storeStats {
	return storeStats{a.loads - b.loads, a.hits - b.hits, a.loadNS - b.loadNS, a.bytesRead - b.bytesRead}
}

func (a storeStats) plus(b storeStats) storeStats {
	return storeStats{a.loads + b.loads, a.hits + b.hits, a.loadNS + b.loadNS, a.bytesRead + b.bytesRead}
}
