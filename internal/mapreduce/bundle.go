package mapreduce

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"datanet/internal/detect"
	"datanet/internal/partition"
	"datanet/internal/sched"
	"datanet/internal/straggle"
)

// Bundle is one policy arm of the engine: the scheduler, the failure
// detector, the straggler mitigation and the reduce partitioner. Its
// String is exactly the `datanet analyze` flags that select it and *Bundle
// is a flag.Value that parses such a line, so the CLI, a sweep's arm and a
// chaos draw name a configuration the same way. What no analyze flag
// spells stays outside the line: the reducer count, the range sampler's
// seed, barrier speculation, reactive rebalancing, output-aware reducers,
// weights and block skipping, and pickers with no sched.Policy row.
type Bundle struct {
	Sched     sched.Policy
	Detect    detect.Config
	Mitigate  straggle.Config
	Partition partition.Mode
}

// Flags resets b to the analyze defaults (Algorithm 1, the oracle, no
// mitigation, no partitioner) and binds its flags on fs.
func (b *Bundle) Flags(fs *flag.FlagSet) {
	*b = Bundle{Sched: sched.DataNet, Mitigate: straggle.Config{Mode: straggle.ModeOff}.WithDefaults(), Partition: partition.ModeOff}
	fs.Var(&b.Sched, "sched", "locality | datanet | capacity | maxflow | lpt")
	fs.Var(&b.Detect.Mode, "detect", "failure detector: oracle (default) | heartbeat")
	fs.Float64Var(&b.Detect.Interval, "hb-interval", 0, "heartbeat interval in simulated seconds (0 = default 0.5)")
	fs.Float64Var(&b.Detect.Timeout, "hb-timeout", 0, "suspicion timeout in simulated seconds (0 = 3 × interval)")
	fs.Var(&b.Mitigate, "mitigate", "straggler mitigation: off (default) | speculative[:Q] (budgeted backups past the Q completion quantile, default 0.9) | coded[:RATE] (k-of-n execution at rate k/n, default 0.85)")
	fs.Var(&b.Partition, "partition", "key-aware reduce partitioning: off | hash | skew | range")
}

// String lists, in flag order, the flags whose value is not the default.
func (b Bundle) String() string {
	var v Bundle
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	v.Flags(fs)
	v = b
	var words []string
	fs.VisitAll(func(f *flag.Flag) {
		if s := f.Value.String(); s != f.DefValue {
			words = append(words, "-"+f.Name, s)
		}
	})
	return strings.Join(words, " ")
}

// Set parses a line of the bundle's flags. Any other word or flag, a
// malformed value and a bundle Validate rejects are errors.
func (b *Bundle) Set(line string) error {
	var v Bundle
	fs := flag.NewFlagSet("policy", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	v.Flags(fs)
	if err := fs.Parse(strings.Fields(line)); err != nil {
		return fmt.Errorf("policy line %q: %w", line, err)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("policy line %q: unexpected argument %q", line, fs.Arg(0))
	}
	if err := v.Validate(); err != nil {
		return err
	}
	*b = v
	return nil
}

// Validate rejects, with its seam's typed error, a scheduler outside the
// table, a negative, NaN or infinite heartbeat duration, an out-of-range
// mitigation knob or an unknown partitioner.
func (b Bundle) Validate() error {
	if err := b.Sched.Validate(); err != nil {
		return err
	}
	if err := b.Detect.WithDefaults().Validate(); err != nil {
		return err
	}
	if err := b.Mitigate.WithDefaults().Validate(); err != nil {
		return err
	}
	return new(partition.Mode).Set(string(b.Partition))
}

// Apply writes the bundle, which must Validate, into cfg: the scheduler's
// picker, the detector, the mitigation and a partitioner of the bundle's
// mode, whose range sampler seed is the caller's to set.
func (b Bundle) Apply(cfg *Config) {
	cfg.Picker = b.Sched.Factory()
	cfg.Detect = b.Detect
	cfg.Mitigate = &b.Mitigate
	cfg.Partition = &partition.Config{Mode: b.Partition}
}
