// Package straggle is the straggler-mitigation layer: progress-based
// remedies for *node* skew, the tail risk the paper's data-aware
// scheduling does not address. A node that is merely slow — degraded
// disk, oversubscribed CPU — is never suspected by the failure detector,
// so without mitigation it stalls the phase barrier indefinitely.
//
// Two strategies, integrated by the engine at structurally different
// points (a periodic trigger scan versus a task-list rewrite plus a
// decode pass), so they share a Config and a Mode but no interface:
//
//   - Speculative execution (SpecEngine): the LATE-style *quantile*
//     trigger — a backup launches when an attempt's projected finish
//     exceeds the running-attempt quantile, subject to per-task and
//     per-job budgets. Its backups share the engine's duplicate machinery
//     and first-finisher-wins dedupe with the failure detector's
//     false-suspicion duplicates. BarrierSpeculate is the separate
//     Hadoop-style whole-phase backup at the analysis barrier.
//
//   - Coded k-of-n execution (Layout + Code): a phase's T tasks are
//     encoded into n > T redundant units (MDS over the filter output
//     fragments, per group of k consecutive tasks) where any k
//     completions per group suffice — the phase never waits for the
//     slowest n−k units. The decode step reconstructs the missing
//     fragments with a real GF(256) Reed–Solomon code, so output
//     byte-identity against an uncoded run is a meaningful check.
//
// The layer is strictly opt-in: a nil or off Config leaves every
// schedule byte-identical to the unmitigated engine.
package straggle

import (
	"errors"
	"fmt"
)

// Mode selects the mitigation strategy.
type Mode string

// Modes.
const (
	// ModeOff disables mitigation (the zero value "" is equivalent).
	ModeOff Mode = "off"
	// ModeSpeculative enables quantile-triggered speculative backups.
	ModeSpeculative Mode = "speculative"
	// ModeCoded enables coded k-of-n redundant execution.
	ModeCoded Mode = "coded"
)

// Config selects and parameterizes a mitigation strategy. The zero value
// (and nil) means off; WithDefaults fills unset knobs.
type Config struct {
	// Mode selects the strategy ("", "off", "speculative", "coded").
	Mode Mode

	// Quantile is the speculation trigger threshold q: a running attempt
	// whose projected finish exceeds the q-quantile of projected finishes
	// (completed attempts included) gets a backup. Default 0.9.
	Quantile float64
	// PerTask caps speculative backups per task. Default 1.
	PerTask int
	// PerJob caps speculative backups per job. 0 takes the default
	// max(1, tasks/4); negative means unlimited.
	PerJob int
	// CheckInterval is the simulated-seconds period of the speculation
	// scan (the master's progress-report cadence). 0 takes the engine's
	// default (a few task overheads).
	CheckInterval float64
	// MinGain is the minimum projected remaining time for a backup to be
	// worth launching; 0 takes the engine's default.
	MinGain float64

	// Rate is the coded-mode k/n ratio in (0,1): each group of GroupSize
	// tasks is encoded into ceil(k/Rate) units. Default 0.85.
	Rate float64
	// GroupSize is the coded-mode group width k. Default 4.
	GroupSize int
	// DecodeCostFactor scales decode CPU seconds per reconstructed byte.
	// Default 0.05 (XOR-speed arithmetic, far cheaper than the filter).
	DecodeCostFactor float64
}

// Errors.
var (
	// ErrMode reports an unknown mitigation mode.
	ErrMode = errors.New("straggle: unknown mitigation mode")
	// ErrConfig reports an out-of-range knob.
	ErrConfig = errors.New("straggle: invalid config")
)

// ParseMode validates a CLI mode string.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeOff:
		return ModeOff, nil
	case ModeSpeculative:
		return ModeSpeculative, nil
	case ModeCoded:
		return ModeCoded, nil
	}
	return "", fmt.Errorf("%w: %q", ErrMode, s)
}

// Enabled reports whether the config turns mitigation on. Safe on nil.
func (c *Config) Enabled() bool {
	return c != nil && c.Mode != "" && c.Mode != ModeOff
}

// WithDefaults returns a copy with unset knobs at their defaults.
func (c Config) WithDefaults() Config {
	if c.Quantile == 0 {
		c.Quantile = 0.9
	}
	if c.PerTask == 0 {
		c.PerTask = 1
	}
	if c.Rate == 0 {
		c.Rate = 0.85
	}
	if c.GroupSize == 0 {
		c.GroupSize = 4
	}
	if c.DecodeCostFactor == 0 {
		c.DecodeCostFactor = 0.05
	}
	return c
}

// Validate rejects out-of-range knobs (after WithDefaults).
func (c Config) Validate() error {
	switch c.Mode {
	case "", ModeOff:
		return nil
	case ModeSpeculative:
		if c.Quantile <= 0 || c.Quantile >= 1 {
			return fmt.Errorf("%w: quantile %v outside (0,1)", ErrConfig, c.Quantile)
		}
		if c.PerTask < 0 {
			return fmt.Errorf("%w: per-task budget %d negative", ErrConfig, c.PerTask)
		}
		if c.CheckInterval < 0 {
			return fmt.Errorf("%w: check interval %v negative", ErrConfig, c.CheckInterval)
		}
		return nil
	case ModeCoded:
		if c.Rate <= 0 || c.Rate >= 1 {
			return fmt.Errorf("%w: coded rate %v outside (0,1)", ErrConfig, c.Rate)
		}
		if c.GroupSize < 1 {
			return fmt.Errorf("%w: group size %d < 1", ErrConfig, c.GroupSize)
		}
		if c.DecodeCostFactor < 0 {
			return fmt.Errorf("%w: decode cost factor %v negative", ErrConfig, c.DecodeCostFactor)
		}
		return nil
	}
	return fmt.Errorf("%w: %q", ErrMode, c.Mode)
}
