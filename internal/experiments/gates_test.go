package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/gen"
)

// suiteGate is one claim about the suite's simulated outcomes that must
// keep holding: lhs op factor × rhs, where lhs and rhs name entries of the
// section's SimMakespans() or Counters(). An empty rhs compares lhs with
// factor alone.
type suiteGate struct {
	section string
	lhs     string
	op      string // "<", "<=", ">" or "=="
	factor  float64
	rhs     string
}

// suiteGates are the claims CI holds the sweeps to; suite.golden pins the
// numbers themselves, these say which relations between them matter.
var suiteGates = []suiteGate{
	// Scheduler + placement beats the scheduler alone on the clustered
	// workload, and pays for it in shipped bytes.
	{"placement-sweep", "clustered/both", "<", 1, "clustered/scheduler-only"},
	{"placement-sweep", "clustered/both/bytes_moved", ">", 0, ""},
	// Both mitigations beat the unmitigated run under heavy slowdowns
	// (coded execution after arXiv 1802.03049), each did real work, and no
	// arm changed the job's output.
	{"straggler-sweep", "128/slow-heavy/oracle/spec-q0.90", "<", 1, "128/slow-heavy/oracle/none"},
	{"straggler-sweep", "128/slow-heavy/oracle/coded-r0.70", "<", 1, "128/slow-heavy/oracle/none"},
	{"straggler-sweep", "speculative_wins", ">", 0, ""},
	{"straggler-sweep", "wasted_task_seconds", ">", 0, ""},
	{"straggler-sweep", "coded_decode_count", ">", 0, ""},
	{"straggler-sweep", "output_divergences", "==", 0, ""},
	// Skew-aware partitioning cuts the zipfian reduce makespan by at least
	// a tenth against hashing (after arXiv 1401.0355) by splitting keys,
	// with identical output.
	{"partition-sweep", "zipfian/skew", "<=", 0.9, "zipfian/hash"},
	{"partition-sweep", "zipfian/skew/split_keys", ">", 0, ""},
	{"partition-sweep", "output_divergences", "==", 0, ""},
}

func (g suiteGate) String() string {
	if g.rhs == "" {
		return fmt.Sprintf("%s: %s %s %g", g.section, g.lhs, g.op, g.factor)
	}
	return fmt.Sprintf("%s: %s %s %g × %s", g.section, g.lhs, g.op, g.factor, g.rhs)
}

// failedGates returns the gates that do not hold on rep, in table order.
// A section or key the report lacks is a failure, never a pass.
func failedGates(rep *BenchReport, gates []suiteGate) []suiteGate {
	var failed []suiteGate
	for _, g := range gates {
		if !g.holds(rep) {
			failed = append(failed, g)
		}
	}
	return failed
}

func (g suiteGate) holds(rep *BenchReport) bool {
	i := slices.IndexFunc(rep.Sections, func(s BenchSection) bool { return s.Name == g.section })
	if i < 0 {
		return false
	}
	value := func(key string) (float64, bool) {
		if v, ok := rep.Sections[i].SimMakespans[key]; ok {
			return v, true
		}
		c, ok := rep.Sections[i].Counters[key]
		return float64(c), ok
	}
	lhs, ok := value(g.lhs)
	if !ok {
		return false
	}
	bound := g.factor
	if g.rhs != "" {
		rhs, ok := value(g.rhs)
		if !ok {
			return false
		}
		bound *= rhs
	}
	switch g.op {
	case "<":
		return lhs < bound
	case "<=":
		return lhs <= bound
	case ">":
		return lhs > bound
	case "==":
		return lhs == bound
	}
	return false
}

// The table, run against a report doctored in three ways, must name
// exactly the three rows that no longer hold.
func TestSuiteGatesCatchDoctoredReport(t *testing.T) {
	report := func() *BenchReport {
		return &BenchReport{Sections: []BenchSection{
			{Name: "placement-sweep",
				SimMakespans: map[string]float64{"clustered/both": 8.2, "clustered/scheduler-only": 8.9},
				Counters:     map[string]int64{"clustered/both/bytes_moved": 69 << 20}},
			{Name: "straggler-sweep",
				SimMakespans: map[string]float64{
					"128/slow-heavy/oracle/none":        30,
					"128/slow-heavy/oracle/spec-q0.90":  21,
					"128/slow-heavy/oracle/coded-r0.70": 24},
				Counters: map[string]int64{"speculative_wins": 40, "wasted_task_seconds": 90,
					"coded_decode_count": 12, "output_divergences": 0}},
			{Name: "partition-sweep",
				SimMakespans: map[string]float64{"zipfian/skew": 4.4, "zipfian/hash": 5},
				Counters:     map[string]int64{"zipfian/skew/split_keys": 3, "output_divergences": 0}},
		}}
	}
	if len(suiteGates) != 11 {
		t.Errorf("gate table has %d rows, want the eleven CI assertions", len(suiteGates))
	}
	if failed := failedGates(report(), suiteGates); len(failed) != 0 {
		t.Fatalf("gates fail on a report that satisfies them: %v", failed)
	}

	doctored := report()
	placement, straggler, partition := doctored.Sections[0], doctored.Sections[1], doctored.Sections[2]
	placement.SimMakespans["clustered/both"], placement.SimMakespans["clustered/scheduler-only"] =
		placement.SimMakespans["clustered/scheduler-only"], placement.SimMakespans["clustered/both"]
	straggler.Counters["coded_decode_count"] = 0
	delete(partition.Counters, "output_divergences")
	want := []suiteGate{suiteGates[0], suiteGates[6], suiteGates[10]}
	if got := failedGates(doctored, suiteGates); !slices.Equal(got, want) {
		t.Errorf("doctored report fails %v, want exactly %v", got, want)
	}

	// At the bound "<=" holds and "<" does not; a missing section fails.
	edge := report()
	edge.Sections = []BenchSection{edge.Sections[0], edge.Sections[2]}
	edge.Sections[0].SimMakespans["clustered/both"] = 8.9
	edge.Sections[1].SimMakespans["zipfian/skew"] = 0.9 * 5
	want = append([]suiteGate{suiteGates[0]}, suiteGates[2:8]...)
	if got := failedGates(edge, suiteGates); !slices.Equal(got, want) {
		t.Errorf("edge report fails %v, want exactly %v", got, want)
	}
}

// The sweeps' output column is a fold over the ids the simulation
// committed, so exactly-once reaches the gate table: a straggler row whose
// output was folded from a ledger with one committed id dropped, or one
// doubled, trips the output_divergences row and nothing else.
func TestOutputGateCatchesLedgerMutation(t *testing.T) {
	p := DefaultFaultParams()
	fix, err := newFaultFixture(movieLog(p), p)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := fix.fs.SubDistribution("dataset.log", gen.MovieID(0))
	if err != nil {
		t.Fatal(err)
	}
	unit := slices.IndexFunc(truth, func(b int64) bool { return b > 0 })
	if unit < 0 {
		t.Fatal("no block holds the analysed movie")
	}
	ledger := func(commits int) []int {
		l := make([]int, len(truth))
		for i := range l {
			l[i] = 1
		}
		l[unit] = commits
		return l
	}
	reference := fix.out.Output(apps.WordCount{}, ledger(1))
	gate := suiteGates[7:8]
	if gate[0].lhs != "output_divergences" {
		t.Fatalf("gate row 7 is %v, want the straggler sweep's output_divergences row", gate[0])
	}
	for commits, want := range map[int][]suiteGate{1: nil, 0: gate, 2: gate} {
		row := StragglerRow{Nodes: 128, Plan: "slow-heavy", Detector: "oracle", Arm: "none",
			OutputOK: reflect.DeepEqual(fix.out.Output(apps.WordCount{}, ledger(commits)), reference)}
		sweep := &StragglerSweepResult{Rows: []StragglerRow{row}}
		rep := &BenchReport{Sections: []BenchSection{{Name: "straggler-sweep",
			SimMakespans: sweep.SimMakespans(), Counters: sweep.Counters()}}}
		if got := failedGates(rep, gate); !slices.Equal(got, want) {
			t.Errorf("unit %d committed %d times: failed gates %v, want %v", unit, commits, got, want)
		}
	}
}
