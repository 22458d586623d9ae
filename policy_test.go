package datanet_test

import (
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datanet"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/gen"
	"datanet/internal/mapreduce"
	"datanet/internal/partition"
	"datanet/internal/straggle"
)

// The four policy seams are flag.Values: the CLI binds them, the chaos
// harness draws them and the engine runs them, with one spelling each. So
// are their combination, the policy bundle, and the other values the CLI
// runs with: the mitigation config with its parameter, the fault lists,
// the application table and the generators.
var (
	_ flag.Value = new(datanet.Scheduler)
	_ flag.Value = new(datanet.DetectorMode)
	_ flag.Value = new(datanet.MitigationMode)
	_ flag.Value = new(datanet.PartitionMode)
	_ flag.Value = new(datanet.MitigationConfig)
	_ flag.Value = new(faults.Crashes)
	_ flag.Value = new(faults.Slowdowns)
	_ flag.Value = new(datanet.AppName)
	_ flag.Value = new(gen.Kind)
	_ flag.Value = new(mapreduce.Bundle)
)

// mit is a mitigation config as Set makes it: the WithDefaults knobs with
// one overwritten.
func mit(m datanet.MitigationMode, quantile, rate float64) datanet.MitigationConfig {
	return datanet.MitigationConfig{Mode: m, Quantile: quantile, Rate: rate}
}

// slow is a slowdown as -slow spells it: one factor for every rate.
func slow(node datanet.NodeID, f float64) datanet.Slowdown {
	return datanet.Slowdown{Node: node, CPU: f, Disk: f, Net: f}
}

// val boxes a policy value as the flag.Value its pointer is.
func val[T any, P interface {
	*T
	flag.Value
}](x T) flag.Value {
	return P(&x)
}

func vals[T any, P interface {
	*T
	flag.Value
}](xs []T) []flag.Value {
	out := make([]flag.Value, len(xs))
	for i := range xs {
		out[i] = P(&xs[i])
	}
	return out
}

func TestPolicyValues(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fresh  func() flag.Value
		values []flag.Value
		// spellings maps every name the CLI (or the Parse*Mode functions
		// the values replaced) accepted to the value it selected.
		spellings map[string]flag.Value
		bad       []string
		typed     error
	}{
		{
			name:  "scheduler",
			fresh: func() flag.Value { return new(datanet.Scheduler) },
			values: vals([]datanet.Scheduler{datanet.SchedulerLocality, datanet.SchedulerDataNet,
				datanet.SchedulerCapacityAware, datanet.SchedulerMaxFlow, datanet.SchedulerLPT}),
			spellings: map[string]flag.Value{
				"locality": val(datanet.SchedulerLocality), "datanet": val(datanet.SchedulerDataNet),
				"capacity": val(datanet.SchedulerCapacityAware), "maxflow": val(datanet.SchedulerMaxFlow),
				"lpt": val(datanet.SchedulerLPT),
			},
			bad:   []string{"nope", "", "Datanet"},
			typed: datanet.ErrUnknownScheduler,
		},
		{
			name:   "detect",
			fresh:  func() flag.Value { return new(datanet.DetectorMode) },
			values: vals(detect.Modes),
			spellings: map[string]flag.Value{
				"": val(datanet.DetectOracle), "oracle": val(datanet.DetectOracle),
				"heartbeat": val(datanet.DetectHeartbeat), "hb": val(datanet.DetectHeartbeat),
			},
			bad:   []string{"nope", "HB", "phi"},
			typed: detect.ErrBadConfig,
		},
		{
			name:   "mitigate",
			fresh:  func() flag.Value { return new(datanet.MitigationMode) },
			values: vals(straggle.Modes),
			spellings: map[string]flag.Value{
				"": val(datanet.MitigateOff), "off": val(datanet.MitigateOff),
				"speculative": val(datanet.MitigateSpeculative), "coded": val(datanet.MitigateCoded),
			},
			bad:   []string{"nope", "spec"},
			typed: straggle.ErrMode,
		},
		{
			name:   "partition",
			fresh:  func() flag.Value { return new(datanet.PartitionMode) },
			values: vals(partition.Modes),
			spellings: map[string]flag.Value{
				"": val(datanet.PartitionOff), "off": val(datanet.PartitionOff),
				"hash": val(datanet.PartitionHash), "skew": val(datanet.PartitionSkew),
				"range": val(datanet.PartitionRange),
			},
			bad:   []string{"zipf", "HASH"},
			typed: partition.ErrMode,
		},
		{
			name:  "mitigation-config",
			fresh: func() flag.Value { return new(datanet.MitigationConfig) },
			values: vals([]datanet.MitigationConfig{mit(datanet.MitigateOff, 0.9, 0.85),
				mit(datanet.MitigateSpeculative, 0.75, 0.85), mit(datanet.MitigateCoded, 0.9, 0.7)}),
			spellings: map[string]flag.Value{
				"": val(mit(datanet.MitigateOff, 0.9, 0.85)), "off": val(mit(datanet.MitigateOff, 0.9, 0.85)),
				"speculative":      val(mit(datanet.MitigateSpeculative, 0.9, 0.85)),
				"speculative:0.75": val(mit(datanet.MitigateSpeculative, 0.75, 0.85)),
				"coded":            val(mit(datanet.MitigateCoded, 0.9, 0.85)),
				"coded:0.7":        val(mit(datanet.MitigateCoded, 0.9, 0.7)),
			},
			// NaN fails every range check, and 0 is not "off" once spelled.
			bad: []string{"spec", "speculative:NaN", "speculative:1", "coded:NaN", "coded:0",
				"coded:-0.5", "coded:x", "off:0.5"},
			typed: straggle.ErrConfig,
		},
		{
			name:  "crashes",
			fresh: func() flag.Value { return new(faults.Crashes) },
			values: vals([]faults.Crashes{nil, {{Node: 2, At: 0.5}},
				{{Node: 2, At: 0.5, RejoinAt: 2}, {Node: 11, At: 1e-3}}}),
			spellings: map[string]flag.Value{
				"":              val(faults.Crashes(nil)),
				"4@10,11@10:25": val(faults.Crashes{{Node: 4, At: 10}, {Node: 11, At: 10, RejoinAt: 25}}),
			},
			bad:   []string{"4", "x@1", "4@", "4@1:x", "4@1,", "4@1;5@2"},
			typed: faults.ErrBadPlan,
		},
		{
			name:   "slowdowns",
			fresh:  func() flag.Value { return new(faults.Slowdowns) },
			values: vals([]faults.Slowdowns{nil, {slow(3, 0.5)}, {slow(3, 0.5), slow(7, 0.25)}}),
			spellings: map[string]flag.Value{
				"":            val(faults.Slowdowns(nil)),
				"3x0.1,7x0.2": val(faults.Slowdowns{slow(3, 0.1), slow(7, 0.2)}),
			},
			bad:   []string{"3", "3x", "x0.5", "3x0.5x", "3*0.5", "3x0.5,"},
			typed: faults.ErrBadPlan,
		},
		{
			name:  "app",
			fresh: func() flag.Value { return new(datanet.AppName) },
			values: vals([]datanet.AppName{datanet.AppWordCount, datanet.AppHistogram,
				datanet.AppMovingAverage, datanet.AppTopK, datanet.AppSort, datanet.AppJoin}),
			spellings: map[string]flag.Value{
				"wordcount": val(datanet.AppWordCount), "histogram": val(datanet.AppHistogram),
				"movingavg": val(datanet.AppMovingAverage), "topk": val(datanet.AppTopK),
				"sort": val(datanet.AppSort), "join": val(datanet.AppJoin),
			},
			bad:   []string{"nope", "", "WordCount", "movavg"},
			typed: datanet.ErrUnknownApp,
		},
		{
			name:   "dataset-kind",
			fresh:  func() flag.Value { return new(gen.Kind) },
			values: vals([]gen.Kind{"movies", "events", "weblog"}),
			spellings: map[string]flag.Value{
				"movies": val(gen.Kind("movies")), "events": val(gen.Kind("events")), "weblog": val(gen.Kind("weblog")),
			},
			bad:   []string{"nope", "", "Movies"},
			typed: gen.ErrKind,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range tc.values {
				got := tc.fresh()
				if err := got.Set(v.String()); err != nil || !reflect.DeepEqual(got, v) {
					t.Errorf("Set(%q) = %v, %v: does not round-trip", v.String(), got, err)
				}
			}
			for s, want := range tc.spellings {
				got := tc.fresh()
				if err := got.Set(s); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("Set(%q) = %v, %v; want %v", s, got, err, want)
				}
			}
			for _, s := range tc.bad {
				if err := tc.fresh().Set(s); !errors.Is(err, tc.typed) {
					t.Errorf("Set(%q) = %v, want an error wrapping %v", s, err, tc.typed)
				}
			}
		})
	}
}

// bundle parses a policy line, failing the test on an error.
func bundle(t *testing.T, line string) mapreduce.Bundle {
	t.Helper()
	var b mapreduce.Bundle
	if err := b.Set(line); err != nil {
		t.Fatalf("Set(%q): %v", line, err)
	}
	return b
}

// The policy bundle is one `datanet analyze` line: Set(String(b)) == b
// for every bundle Set produces. The sample spans the chaos draw space
// (every detector × mitigation × partitioner at the harness's beat
// interval, plus a non-default quantile and rate), all five schedulers,
// and heartbeat durations a sweep derives from a healthy run, which are
// not short decimals.
func TestBundleRoundTrip(t *testing.T) {
	var bundles []mapreduce.Bundle
	for _, d := range detect.Modes {
		for _, m := range []string{"off", "speculative", "coded", "speculative:0.75", "coded:0.7"} {
			for _, p := range partition.Modes {
				bundles = append(bundles, bundle(t, fmt.Sprintf("-detect %s -hb-interval 0.02 -mitigate %s -partition %s", d, m, p)))
			}
		}
	}
	for _, s := range []datanet.Scheduler{datanet.SchedulerLocality, datanet.SchedulerDataNet,
		datanet.SchedulerCapacityAware, datanet.SchedulerMaxFlow, datanet.SchedulerLPT} {
		bundles = append(bundles, bundle(t, "-sched "+s.String()))
	}
	const filterEnd = 0.7044240190000001
	for _, k := range []float64{1, 2, 3, 5, 8} {
		b := bundle(t, "-sched locality -detect heartbeat")
		b.Detect.Interval = filterEnd * 0.02
		b.Detect.Timeout = k * b.Detect.Interval
		bundles = append(bundles, b)
	}
	for _, b := range bundles {
		var got mapreduce.Bundle
		if err := got.Set(b.String()); err != nil || got != b {
			t.Errorf("Set(%q) = %+v, %v; want %+v", b.String(), got, err, b)
		}
	}

	// String is exactly the flags that select the bundle: none for the
	// analyze defaults, in flag order otherwise.
	for line, want := range map[string]string{
		"": "",
		"-sched datanet -mitigate off -partition off -detect oracle":   "",
		"-mitigate speculative:0.75 -sched locality":                   "-mitigate speculative:0.75 -sched locality",
		"-partition skew -detect hb -hb-interval 0.02 -mitigate coded": "-detect heartbeat -hb-interval 0.02 -mitigate coded:0.85 -partition skew",
		"-sched capacity -hb-timeout 1.5":                              "-hb-timeout 1.5 -sched datanet-capacity",
	} {
		if got := bundle(t, line).String(); got != want {
			t.Errorf("Set(%q).String() = %q, want %q", line, got, want)
		}
	}
}

// A malformed line is rejected with its seam's typed error or a flag
// error, and a bundle Set never makes fails Validate with the typed error.
func TestBundleRejectsMalformedLines(t *testing.T) {
	for line, want := range map[string]string{
		"-sub x":                             "flag provided but not defined: -sub",
		"x":                                  `unexpected argument "x"`,
		"-sched datanet x":                   `unexpected argument "x"`,
		"-sched nope":                        `invalid value "nope" for flag -sched`,
		"-detect phi":                        `invalid value "phi" for flag -detect`,
		"-mitigate coded:0":                  `invalid value "coded:0" for flag -mitigate`,
		"-partition zipf":                    `invalid value "zipf" for flag -partition`,
		"-hb-interval x":                     `invalid value "x" for flag -hb-interval`,
		"-h":                                 flag.ErrHelp.Error(),
		"-hb-interval -5":                    detect.ErrBadConfig.Error(),
		"-hb-timeout -1":                     detect.ErrBadConfig.Error(),
		"-detect heartbeat -hb-interval NaN": detect.ErrBadConfig.Error(),
	} {
		b := bundle(t, "-sched lpt")
		if err := b.Set(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Set(%q) = %v, want an error containing %q", line, err, want)
		}
		if b != bundle(t, "-sched lpt") {
			t.Errorf("a rejected Set(%q) changed the bundle to %+v", line, b)
		}
	}
	for _, tc := range []struct {
		b    mapreduce.Bundle
		want error
	}{
		{mapreduce.Bundle{Sched: 99}, datanet.ErrUnknownScheduler},
		{mapreduce.Bundle{Sched: -1}, datanet.ErrUnknownScheduler},
		{mapreduce.Bundle{Detect: datanet.DetectorConfig{Mode: 7}}, detect.ErrBadConfig},
		{mapreduce.Bundle{Detect: datanet.DetectorConfig{Interval: -1}}, detect.ErrBadConfig},
		{mapreduce.Bundle{Mitigate: mit(datanet.MitigateCoded, 0.9, 2)}, straggle.ErrConfig},
		{mapreduce.Bundle{Mitigate: mit("spec", 0.9, 0.85)}, straggle.ErrMode},
		{mapreduce.Bundle{Partition: "zipf"}, partition.ErrMode},
	} {
		if err := tc.b.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%+v.Validate() = %v, want an error wrapping %v", tc.b, err, tc.want)
		}
	}
}
