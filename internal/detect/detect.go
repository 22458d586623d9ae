// Package detect is a heartbeat-based failure detector for the simulated
// MapReduce master. The engine historically learned of node deaths from
// the fault injector itself — an oracle with zero detection latency. Real
// masters infer death from missed heartbeats, pay a timeout before
// reacting, and sometimes condemn nodes that were merely slow. This
// package models that honestly, on the same deterministic sim kernel the
// filter phase runs on.
//
// The detector suspects a node after a fixed timeout of K missed beats
// (Timeout = K·Interval). A node whose hardware runs slower than 1/K of
// rated speed beats less often than the timeout allows and is falsely
// suspected — the classic straggler/failure ambiguity.
//
// The detector owns *belief*, never truth: it reads the injector only the
// way a real network would (a dead node's beats do not arrive; a slowed
// node's beats arrive late), and it writes what it believes into the one
// node-health table (cluster.Health) every other layer reads. The engine
// reacts to the detector's Suspect/Clear transitions; the gap between a
// crash and its Suspect call is the detection latency the oracle mode
// never paid.
//
// State machine per node:
//
//	Live ──(timeout matures with no beat)──▶ Suspected
//	Suspected ──(a beat arrives: rejoin or false alarm)──▶ Live
//
// A permanently dead node simply stays Suspected; "dead" is not a detector
// state because the master can never distinguish it from "very late".
package detect

import (
	"errors"
	"fmt"
	"math"

	"datanet/internal/cluster"
	"datanet/internal/sim"
)

// Mode selects how the master learns of failures.
type Mode int

const (
	// Oracle is the historical behavior: the engine reads the injector
	// directly and reacts to crashes at the crash instant. No Detector is
	// constructed in this mode; it exists so configurations can say
	// "detect.Oracle" explicitly and golden schedules stay byte-identical.
	Oracle Mode = iota
	// Heartbeat suspects after a fixed timeout of K missed beats.
	Heartbeat
)

// Modes lists every detection mode, in the order the CLI documents them.
var Modes = []Mode{Oracle, Heartbeat}

// String names the mode as the CLI spells it.
func (m Mode) String() string {
	switch m {
	case Oracle:
		return "oracle"
	case Heartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ErrBadConfig reports an invalid detector configuration.
var ErrBadConfig = errors.New("detect: invalid config")

// Set parses a CLI mode name ("" and "hb" are aliases of oracle and
// heartbeat), making *Mode a flag.Value.
func (m *Mode) Set(s string) error {
	switch s {
	case "":
		s = "oracle"
	case "hb":
		s = "heartbeat"
	}
	for _, v := range Modes {
		if v.String() == s {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("%w: unknown mode %q (want oracle or heartbeat)", ErrBadConfig, s)
}

// Default detector parameters: beats every half second of simulated time,
// suspicion after three missed beats — Hadoop-like proportions scaled to
// the simulation's task durations.
const (
	DefaultInterval = 0.5
	DefaultMissed   = 3
)

// Config parameterizes the detector.
type Config struct {
	// Mode selects oracle or heartbeat detection.
	Mode Mode
	// Interval is the heartbeat period of a healthy node, in simulated
	// seconds. Slowed nodes beat proportionally less often (their CPU runs
	// the heartbeat loop too). Zero selects DefaultInterval.
	Interval float64
	// Timeout is the suspicion timeout: a node is suspected when Timeout
	// elapses since its last beat. Zero selects DefaultMissed × Interval.
	Timeout float64
}

// WithDefaults fills exact-zero fields (Validate rejects a negative one).
func (c Config) WithDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultMissed * c.Interval
	}
	return c
}

// Validate rejects non-finite or non-positive parameters.
func (c Config) Validate() error {
	for _, v := range []struct {
		name string
		v    float64
	}{{"interval", c.Interval}, {"timeout", c.Timeout}} {
		if v.v <= 0 || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("%w: %s %v must be positive and finite", ErrBadConfig, v.name, v.v)
		}
	}
	if c.Mode != Oracle && c.Mode != Heartbeat {
		return fmt.Errorf("%w: unknown mode %d", ErrBadConfig, int(c.Mode))
	}
	return nil
}

// Truth is the slice of the fault injector the detector's *physics*
// depend on: whether a node's beat can physically be emitted at an
// instant, when a dead node restarts, and how slow its hardware runs.
// The detector never exposes these answers to the master's belief — it
// only uses them to decide which beats arrive, and when.
type Truth interface {
	DeadAt(id cluster.NodeID, t float64) bool
	RejoinAfter(id cluster.NodeID, t float64) (float64, bool)
	CPURate(id cluster.NodeID, base float64) float64
}

// Hooks are the engine's reactions to detector transitions. All are
// optional; a non-nil error aborts the kernel run. Beat fires on every
// arriving beat (after the node's belief state is updated, before Clear),
// so the engine can treat a restarted node's first beat as its
// re-registration. Suspect fires on Live→Suspected, Clear on
// Suspected→Live.
type Hooks struct {
	Beat    func(id cluster.NodeID, t float64) error
	Suspect func(id cluster.NodeID, t float64) error
	Clear   func(id cluster.NodeID, t float64) error
}

// nodeState is the per-node beat bookkeeping; the belief itself lives in
// the health table.
type nodeState struct {
	lastBeat float64
	// armGen invalidates stale timeout events: each arriving beat re-arms
	// the timeout and bumps the generation.
	armGen int
}

// Detector runs the heartbeat protocol for every node of one job.
type Detector struct {
	cfg     Config
	truth   Truth
	ns      []nodeState
	health  *cluster.Health
	kern    *sim.Kernel
	beat    sim.Kind
	timeout sim.Kind
	hooks   Hooks
}

// New builds a detector for n nodes. cfg must describe a non-oracle mode
// (the oracle needs no detector).
func New(cfg Config, truth Truth, n int) (*Detector, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == Oracle {
		return nil, fmt.Errorf("%w: oracle mode needs no detector", ErrBadConfig)
	}
	return &Detector{cfg: cfg, truth: truth, ns: make([]nodeState, n), health: cluster.NewHealth(n)}, nil
}

// SetHooks installs the engine's transition callbacks.
func (d *Detector) SetHooks(h Hooks) { d.hooks = h }

// Interval returns the configured heartbeat period.
func (d *Detector) Interval() float64 { return d.cfg.Interval }

// Health is the table the detector writes its belief into; the nil
// detector (the oracle) has none, which believes every node live.
func (d *Detector) Health() *cluster.Health {
	if d == nil {
		return nil
	}
	return d.health
}

// period is the node's actual beat period: the configured interval
// stretched by the node's CPU slowdown (a degraded machine runs its
// heartbeat loop slower too, which is how a slow node earns a false
// suspicion).
func (d *Detector) period(id cluster.NodeID) float64 {
	f := d.truth.CPURate(id, 1)
	if f <= 0 || f > 1 {
		f = 1
	}
	return d.cfg.Interval / f
}

// Bind registers the detector's handlers on the kernel and posts every
// node's first beat and first timeout. beatKind/timeoutKind are kernel
// event kinds owned by the caller; prio orders detector events against the
// caller's own (beats deliver at prio, timeouts at prio+1, so a beat
// arriving exactly at its timeout instant clears the node first).
// Registration is the job start: every node is believed live at t=0.
func (d *Detector) Bind(k *sim.Kernel, beatKind, timeoutKind sim.Kind, prio int8) {
	d.kern = k
	d.beat = beatKind
	d.timeout = timeoutKind
	k.Handle(beatKind, d.onBeat)
	k.Handle(timeoutKind, d.onTimeout)
	for i := range d.ns {
		id := cluster.NodeID(i)
		k.Post(sim.Event{At: d.period(id), Kind: beatKind, Prio: prio, K1: int64(id)})
		k.Post(sim.Event{At: d.cfg.Timeout, Kind: timeoutKind, Prio: prio + 1,
			K1: int64(id), Payload: 0})
	}
}

// onBeat delivers one node's heartbeat instant. If the node is physically
// dead the beat never arrives; the chain re-anchors at the node's restart
// (its first beat after rejoining doubles as re-registration). A live
// node's beat records its arrival, re-arms the timeout, clears any
// suspicion, and schedules the next beat.
func (d *Detector) onBeat(ev *sim.Event) error {
	id := cluster.NodeID(ev.K1)
	t := ev.At
	if d.truth.DeadAt(id, t) {
		if rj, ok := d.truth.RejoinAfter(id, t); ok {
			d.kern.Post(sim.Event{At: rj, Kind: d.beat, Prio: ev.Prio, K1: ev.K1})
		}
		return nil // the beat was never sent; the timeout will mature
	}
	st := &d.ns[id]
	st.lastBeat = t
	st.armGen++
	d.kern.Post(sim.Event{At: t + d.cfg.Timeout, Kind: d.timeout, Prio: ev.Prio + 1,
		K1: ev.K1, Payload: st.armGen})
	wasSuspected := d.health.Suspected(id)
	d.health.Clear(id)
	if d.hooks.Beat != nil {
		if err := d.hooks.Beat(id, t); err != nil {
			return err
		}
	}
	if wasSuspected && d.hooks.Clear != nil {
		if err := d.hooks.Clear(id, t); err != nil {
			return err
		}
	}
	d.kern.Post(sim.Event{At: t + d.period(id), Kind: d.beat, Prio: ev.Prio, K1: ev.K1})
	return nil
}

// onTimeout matures one armed suspicion timeout. A beat since arming
// bumped the generation and this event is stale; otherwise the node
// missed its deadline and is suspected.
func (d *Detector) onTimeout(ev *sim.Event) error {
	id := cluster.NodeID(ev.K1)
	if ev.Payload.(int) != d.ns[id].armGen {
		return nil // re-armed by a later beat
	}
	if d.health.Suspected(id) {
		return nil
	}
	d.health.Suspect(id)
	if d.hooks.Suspect != nil {
		return d.hooks.Suspect(id, ev.At)
	}
	return nil
}

// ResponseAt predicts when the master would learn of a crash at crashAt,
// for crashes striking after the kernel loop has drained (the analysis
// phase runs on closed-form durations, not events). The node's beat chain
// continues at its period from the last observed beat; the last beat
// strictly before the crash plus the timeout is the suspicion instant.
// The result never precedes the crash.
func (d *Detector) ResponseAt(id cluster.NodeID, crashAt float64) float64 {
	if d == nil {
		return crashAt // oracle: the master reacts instantly
	}
	p := d.period(id)
	last := d.ns[id].lastBeat
	if crashAt > last {
		last += math.Floor((crashAt-last)/p) * p
		if last >= crashAt {
			last -= p // a beat at the crash instant is never sent
		}
	}
	rt := last + d.cfg.Timeout
	if rt < crashAt {
		rt = crashAt
	}
	return rt
}
