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

// ErrUnknownPolicy reports a scheduler name Set does not know.
var ErrUnknownPolicy = errors.New("sched: unknown scheduler")

// row is the policy's table row; a value outside the table runs the
// locality baseline.
func (p Policy) row() int {
	if p < 0 || int(p) >= len(policies) {
		return int(Locality)
	}
	return int(p)
}

// String names the policy.
func (p Policy) String() string { return policies[p.row()].name }

// Factory returns the policy's picker constructor.
func (p Policy) Factory() Factory { return policies[p.row()].factory }

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
