package sched

import (
	"errors"
	"fmt"
)

// Policy selects a task-assignment policy by the name the CLI and the plan
// endpoint spell it; *Policy is a flag.Value.
type Policy int

// The policies, in table order: Hadoop's locality baseline, Algorithm 1,
// Algorithm 1 with capacity-proportional targets, the offline max-flow
// optimum and the LPT greedy ablation.
const (
	Locality Policy = iota
	DataNet
	CapacityAware
	MaxFlow
	LPT
)

// policies is the one table of scheduling policies, indexed by Policy: the
// name String reports and Set parses, an alias Set also accepts, and the
// picker.
var policies = [...]struct {
	name, alias string
	factory     Factory
}{
	Locality:      {"locality", "", NewLocalityPicker},
	DataNet:       {"datanet", "", NewDataNetPicker},
	CapacityAware: {"datanet-capacity", "capacity", NewCapacityAwarePicker},
	MaxFlow:       {"maxflow", "", NewFlowPicker},
	LPT:           {"lpt", "", NewLPTPicker},
}

// ErrUnknownPolicy reports a scheduler name Set does not know, or a value
// outside the table.
var ErrUnknownPolicy = errors.New("sched: unknown scheduler")

// Validate rejects a value outside the table, which no constant names and
// Set never makes.
func (p Policy) Validate() error {
	if p < 0 || int(p) >= len(policies) {
		return fmt.Errorf("%w policy(%d)", ErrUnknownPolicy, int(p))
	}
	return nil
}

// String names the policy.
func (p Policy) String() string {
	if p.Validate() != nil {
		return fmt.Sprintf("policy(%d)", int(p))
	}
	return policies[p].name
}

// Factory returns the policy's picker constructor; p must Validate.
func (p Policy) Factory() Factory { return policies[p].factory }

// Set parses a policy name or alias.
func (p *Policy) Set(name string) error {
	for i, row := range policies {
		if name == row.name || (name != "" && name == row.alias) {
			*p = Policy(i)
			return nil
		}
	}
	return fmt.Errorf("%w %q (want locality, datanet, capacity, maxflow or lpt)", ErrUnknownPolicy, name)
}
