package faults

import (
	"fmt"
	"slices"
	"time"
)

// TargetState is the activation bookkeeping of one (rule, node) pair, the
// form the injector both tracks and serializes.
type TargetState struct {
	Node  int           `json:"node"`
	Until time.Duration `json:"until"` // absolute clock the current activation holds to
	Open  bool          `json:"open"`  // a window is currently held open
	Fired bool          `json:"fired"` // scheduled one-shot already delivered
}

// RuleState is the serialized activation state of one rule across its
// targets. The rule itself recompiles from Config; only the live
// bookkeeping is state.
type RuleState struct {
	Targets []TargetState `json:"targets"`
}

// InjectorState is the serializable state of an Injector: its private
// stream position plus every rule's activation bookkeeping.
type InjectorState struct {
	RNG   []byte      `json:"rng"`
	Rules []RuleState `json:"rules"`
}

// Snapshot captures the injector's state.
func (inj *Injector) Snapshot() InjectorState {
	b, _ := inj.rng.MarshalBinary() // never fails for PCG sources
	st := InjectorState{RNG: b, Rules: make([]RuleState, len(inj.rules))}
	for i, rs := range inj.rules {
		st.Rules[i] = RuleState{Targets: slices.Clone(rs.targets)}
	}
	return st
}

// Restore overwrites the injector's state from a snapshot taken from an
// injector compiled from the same Config and fleet size. The snapshot's
// shape must match the compiled rules exactly; a mismatch means the
// checkpoint belongs to a different fault plan and is rejected.
func (inj *Injector) Restore(st InjectorState) error {
	if len(st.RNG) == 0 {
		return fmt.Errorf("faults: restore: empty rng state")
	}
	if len(st.Rules) != len(inj.rules) {
		return fmt.Errorf("faults: restore: snapshot has %d rules, plan has %d",
			len(st.Rules), len(inj.rules))
	}
	for i, rs := range st.Rules {
		have := inj.rules[i].targets
		if len(rs.Targets) != len(have) {
			return fmt.Errorf("faults: restore: rule %d has %d targets, plan has %d",
				i, len(rs.Targets), len(have))
		}
		for j, t := range rs.Targets {
			if t.Node != have[j].Node {
				return fmt.Errorf("faults: restore: rule %d target %d is node %d, plan has node %d",
					i, j, t.Node, have[j].Node)
			}
			if t.Until < 0 {
				return fmt.Errorf("faults: restore: rule %d target %d has negative hold %v", i, j, t.Until)
			}
		}
	}
	if err := inj.rng.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("faults: restore: %w", err)
	}
	for i, rs := range inj.rules {
		copy(rs.targets, st.Rules[i].Targets)
	}
	return nil
}
