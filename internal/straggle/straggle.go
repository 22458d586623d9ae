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
	"strconv"
	"strings"
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

// Modes lists every mitigation mode, in the order the CLI documents them.
var Modes = []Mode{ModeOff, ModeSpeculative, ModeCoded}

// String names the mode as the CLI spells it.
func (m Mode) String() string { return string(m) }

// Set parses a CLI mode name ("" is an alias of off), making *Mode a
// flag.Value.
func (m *Mode) Set(s string) error {
	if s == "" {
		s = string(ModeOff)
	}
	for _, v := range Modes {
		if v.String() == s {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrMode, s)
}

// Config selects and parameterizes a mitigation strategy. The zero value
// (and nil) means off; WithDefaults fills unset knobs.
type Config struct {
	// Mode selects the strategy ("", "off", "speculative", "coded").
	Mode Mode

	// Quantile is the speculation trigger threshold q: a running attempt
	// whose projected finish exceeds the q-quantile of projected finishes
	// (completed attempts included) gets a backup. Default 0.9.
	Quantile float64

	// Rate is the coded-mode k/n ratio in (0,1): each group of GroupSize
	// tasks is encoded into ceil(k/Rate) units. Default 0.85.
	Rate float64
}

// The knobs no caller varies.
const (
	// perTask caps speculative backups per task; the per-job cap is
	// max(1, tasks/4).
	perTask = 1
	// checkOverheads and minGainOverheads scale the engine's per-task
	// overhead into the speculation scan cadence (the master's
	// progress-report period) and the minimum projected remaining time
	// worth a backup: speculating on an attempt that would finish within a
	// couple of task setups cannot win.
	checkOverheads   = 2
	minGainOverheads = 2
	// GroupSize is the coded-mode group width k.
	GroupSize = 4
	// DecodeCostFactor scales decode CPU seconds per reconstructed byte
	// (XOR-speed arithmetic, far cheaper than the filter).
	DecodeCostFactor = 0.05
)

// Errors.
var (
	// ErrMode reports an unknown mitigation mode.
	ErrMode = errors.New("straggle: unknown mitigation mode")
	// ErrConfig reports an out-of-range knob.
	ErrConfig = errors.New("straggle: invalid config")
)

// Enabled reports whether the config turns mitigation on. Safe on nil.
func (c *Config) Enabled() bool {
	return c != nil && c.Mode != "" && c.Mode != ModeOff
}

// WithDefaults returns a copy with unset knobs at their defaults.
func (c Config) WithDefaults() Config {
	if c.Quantile == 0 {
		c.Quantile = 0.9
	}
	if c.Rate == 0 {
		c.Rate = 0.85
	}
	return c
}

// String spells the config as Set parses it: off, speculative:Q or
// coded:RATE.
func (c *Config) String() string {
	switch d := c.WithDefaults(); c.Mode {
	case ModeSpeculative:
		return fmt.Sprintf("%s:%g", c.Mode, d.Quantile)
	case ModeCoded:
		return fmt.Sprintf("%s:%g", c.Mode, d.Rate)
	}
	return string(ModeOff)
}

// Set parses off, speculative[:Q] or coded[:RATE], making *Config a
// flag.Value. A missing parameter takes its WithDefaults value, and the
// result must Validate.
func (c *Config) Set(s string) error {
	name, param, hasParam := strings.Cut(s, ":")
	v := Config{}.WithDefaults()
	if err := v.Mode.Set(name); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if hasParam {
		knob := map[Mode]*float64{ModeSpeculative: &v.Quantile, ModeCoded: &v.Rate}[v.Mode]
		f, err := strconv.ParseFloat(param, 64)
		if knob == nil || err != nil {
			return fmt.Errorf("%w: bad parameter in %q (want off, speculative[:Q] or coded[:RATE])", ErrConfig, s)
		}
		*knob = f
	}
	if err := v.Validate(); err != nil {
		return err
	}
	*c = v
	return nil
}

// Validate rejects out-of-range knobs (after WithDefaults). The range
// checks are written so NaN fails them.
func (c Config) Validate() error {
	switch c.Mode {
	case "", ModeOff:
		return nil
	case ModeSpeculative:
		if !(c.Quantile > 0 && c.Quantile < 1) {
			return fmt.Errorf("%w: quantile %v outside (0,1)", ErrConfig, c.Quantile)
		}
		return nil
	case ModeCoded:
		if !(c.Rate > 0 && c.Rate < 1) {
			return fmt.Errorf("%w: coded rate %v outside (0,1)", ErrConfig, c.Rate)
		}
		return nil
	}
	return fmt.Errorf("%w: %q", ErrMode, c.Mode)
}
