package main

import (
	"testing"

	"muml/internal/core"
)

func TestCheckOutcomeFollowsTheGuarantees(t *testing.T) {
	proven := outcome{verdict: core.VerdictProven}
	constraint := outcome{verdict: core.VerdictViolation, kind: core.ViolationConstraint}
	deadlock := outcome{verdict: core.VerdictViolation, kind: core.ViolationDeadlock}
	cases := []struct {
		truth truth
		o     outcome
		ok    bool
	}{
		{truth{true, true}, proven, true},
		{truth{false, true}, proven, false},
		{truth{true, false}, proven, false},
		{truth{false, true}, constraint, true},
		{truth{true, false}, constraint, false},
		{truth{true, false}, deadlock, true},
		{truth{false, true}, deadlock, false},
		{truth{false, false}, constraint, true},
		{truth{false, false}, deadlock, true},
	}
	for _, c := range cases {
		if err := checkOutcome(c.truth, c.o); (err == nil) != c.ok {
			t.Errorf("truth %+v, outcome %+v: err = %v, want ok = %v", c.truth, c.o, err, c.ok)
		}
	}
}

// TestFlippedVerdictFailsTheRun runs a small instance set of every
// workload through the real pipeline and proves that the run check
// passes on the real verdicts and fails when any single one is flipped.
func TestFlippedVerdictFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		w.n = 24
		r, _, err := setup(w, 7, 2, t.TempDir())
		if err != nil {
			t.Fatalf("%s: setup: %v", w.name, err)
		}
		st, err := r.round(nil)
		if err != nil {
			t.Fatalf("%s: round: %v", w.name, err)
		}
		if st.failed != 0 {
			t.Fatalf("%s: %d instances failed", w.name, st.failed)
		}
		if err := r.check(st); err != nil {
			t.Fatalf("%s: real verdicts rejected: %v", w.name, err)
		}
		for i := range st.outcomes {
			if r.check(st.flipped(i)) == nil {
				t.Errorf("%s: flipped verdict of %s passed the check", w.name, r.insts[i].name)
			}
		}
	}
}
