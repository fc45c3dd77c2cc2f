package main

import (
	"fmt"
	"math/rand"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/experiments"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// workload names one instance distribution the benchmark runs in a closed
// loop. The instance counts are sized so that changing --seed moves the
// per-verdict work counts by well under their bounds.
type workload struct {
	name string
	// n is the number of instances in the fixed set every round runs.
	n int
	// generate draws the instance set for a seed.
	generate func(seed int64, n int) ([]*instance, error)
	// store serves the set through a memostore filled by a cold pass.
	store bool
}

var workloads = []workload{
	{name: "gen-default", n: 6000, generate: genInstances(gen.DefaultConfig())},
	{name: "gen-wide", n: 800, generate: genInstances(gen.WideConfig())},
	{name: "scenario-deep", n: 400, generate: scenarioInstances},
	{name: "store-warm", n: 1600, generate: genInstances(gen.WideConfig()), store: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one generated verification question plus its ground truth.
// The legacy automaton is the component's full behaviour M_r; the
// synthesis loop only ever sees it through a freshly wrapped black box.
type instance struct {
	name     string
	context  *automata.Automaton
	legacy   *automata.Automaton
	iface    legacy.Interface
	property ctl.Formula
	// trueSystem builds the real integrated system the verdict is about.
	trueSystem func() (*automata.Automaton, error)
	truth      truth
}

// truth is the ground-truth classification of the real integrated system,
// decided by the frozen reference model checker.
type truth struct {
	propertyHolds bool
	deadlockFree  bool
}

// instanceSeed spreads the per-instance generator seeds of one benchmark
// seed far apart from those of the next one.
func instanceSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

func genInstances(cfg gen.Config) func(seed int64, n int) ([]*instance, error) {
	return func(seed int64, n int) ([]*instance, error) {
		out := make([]*instance, n)
		for k := range out {
			inst, err := gen.New(instanceSeed(seed, k), cfg)
			if err != nil {
				return nil, err
			}
			if inst.Nondet() {
				return nil, fmt.Errorf("gen instance %d is nondeterministic", inst.Seed)
			}
			out[k] = &instance{
				name:     fmt.Sprintf("gen-%d", inst.Seed),
				context:  inst.Context,
				legacy:   inst.Legacy,
				iface:    inst.Interface(),
				property: inst.Property,
				// M_a^c ‖ M_r with M_r explored from the black box, so
				// its states carry the labels generated properties name.
				trueSystem: inst.TrueComposition,
			}
		}
		return out, nil
	}
}

// Scenario shape: a 96..127-state legacy machine whose context folds six
// random protocol walks of length eight. Every second scenario carries
// one injected fault, so both verdicts occur.
const (
	scenarioMinStates = 96
	scenarioSpread    = 32
	scenarioWalks     = 6
	scenarioWalkLen   = 8
)

func scenarioInstances(seed int64, n int) ([]*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*instance, n)
	for k := range out {
		sc := experiments.GenerateScenario(rng,
			scenarioMinStates+rng.Intn(scenarioSpread), scenarioWalks, scenarioWalkLen)
		if k%2 == 1 {
			sc = experiments.MutateScenario(rng, sc)
		}
		out[k] = &instance{
			name:    fmt.Sprintf("scenario-%d-%d", seed, k),
			context: sc.Context,
			legacy:  sc.Legacy,
			iface:   sc.Iface,
			trueSystem: func() (*automata.Automaton, error) {
				return automata.Compose("truth", sc.Context, sc.Legacy)
			},
		}
	}
	return out, nil
}

// groundTruth classifies every instance with ctl.Reference, the frozen
// model checker the production one is tested against, on its true
// system. Scenarios carry no property: only deadlock freedom is decided.
func groundTruth(insts []*instance) error {
	for _, in := range insts {
		sys, err := in.trueSystem()
		if err != nil {
			return fmt.Errorf("ground truth of %s: %w", in.name, err)
		}
		ref := ctl.NewReference(sys)
		in.truth = truth{
			propertyHolds: in.property == nil || ref.Holds(in.property),
			deadlockFree:  ref.Holds(ctl.NoDeadlock()),
		}
	}
	return nil
}

// outcome is what the synthesis loop answered for one instance.
type outcome struct {
	verdict core.Verdict
	kind    core.ViolationKind
}

// checkOutcome enforces the paper's guarantees against the ground truth:
// proven means φ ∧ ¬δ holds on the real system (Lemma 5); a constraint
// violation means φ fails, a deadlock violation that δ is reachable
// (Lemma 6).
func checkOutcome(t truth, o outcome) error {
	switch o.verdict {
	case core.VerdictProven:
		if !t.propertyHolds || !t.deadlockFree {
			return fmt.Errorf("proven, but ground truth has property=%v deadlock-free=%v",
				t.propertyHolds, t.deadlockFree)
		}
	case core.VerdictViolation:
		switch o.kind {
		case core.ViolationConstraint:
			if t.propertyHolds {
				return fmt.Errorf("constraint violation, but the property holds on the ground truth")
			}
		case core.ViolationDeadlock:
			if t.deadlockFree {
				return fmt.Errorf("deadlock violation, but the ground truth is deadlock free")
			}
		default:
			return fmt.Errorf("violation of unknown kind %v", o.kind)
		}
	default:
		return fmt.Errorf("unknown verdict %v", o.verdict)
	}
	return nil
}
