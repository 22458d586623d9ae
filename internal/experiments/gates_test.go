package experiments

import (
	"fmt"
	"slices"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/gen"
)

// suiteGate is one gate row with the section it is declared beside.
type suiteGate struct {
	section string
	gate
}

// suiteGates is every section's gate rows, in suite order: the claims CI
// holds the suite to. Passing section names keeps only their rows.
func suiteGates(sections ...string) []suiteGate {
	var all []suiteGate
	for _, s := range suiteSections() {
		if len(sections) > 0 && !slices.Contains(sections, s.name) {
			continue
		}
		for _, g := range s.gates {
			all = append(all, suiteGate{s.name, g})
		}
	}
	return all
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
		i := slices.IndexFunc(rep.Sections, func(s BenchSection) bool { return s.Name == g.section })
		if i < 0 || !g.holds(rep.Sections[i].Values) {
			failed = append(failed, g)
		}
	}
	return failed
}

func (g gate) holds(values map[string]float64) bool {
	lhs, ok := values[g.lhs]
	if !ok {
		return false
	}
	bound := g.factor
	if g.rhs != "" {
		rhs, ok := values[g.rhs]
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
	case ">=":
		return lhs >= bound
	case "==":
		return lhs == bound
	}
	return false
}

// holdGates checks the gate rows declared beside a section on a report of
// that experiment run at other parameters: the claims that name cells both
// runs have must hold at both scales.
func holdGates(t *testing.T, section string, r *Report) {
	t.Helper()
	gates := suiteGates(section)
	if len(gates) == 0 {
		t.Fatalf("section %q declares no gates", section)
	}
	for _, g := range failedGates(&BenchReport{Sections: []BenchSection{{Name: section, Report: r}}}, gates) {
		t.Errorf("gate does not hold: %v (values %v)", g, r.Values)
	}
}

// The table, run against a report doctored in three ways, must name
// exactly the three rows that no longer hold.
func TestSuiteGatesCatchDoctoredReport(t *testing.T) {
	section := func(name string, values map[string]float64) BenchSection {
		return BenchSection{Name: name, Report: &Report{Values: values}}
	}
	report := func() *BenchReport {
		return &BenchReport{Sections: []BenchSection{
			section("placement-sweep", map[string]float64{
				"clustered/scheduler-only": 8.2, "clustered/baseline": 8.9}),
			section("straggler-sweep", map[string]float64{
				"128/slow-heavy/oracle/none":        30,
				"128/slow-heavy/oracle/spec-q0.90":  21,
				"128/slow-heavy/oracle/coded-r0.70": 24,
				"speculative_wins":                  40, "wasted_task_seconds": 90,
				"coded_decode_count": 12, "output_divergences": 0}),
			section("partition-sweep", map[string]float64{
				"zipfian/skew": 4.4, "zipfian/hash": 5, "zipfian/skew/split_keys": 3, "output_divergences": 0}),
		}}
	}
	gates := suiteGates("placement-sweep", "straggler-sweep", "partition-sweep")
	if len(gates) != 10 {
		t.Fatalf("the three sweeps declare %d gate rows, want the ten CI assertions", len(gates))
	}
	if failed := failedGates(report(), gates); len(failed) != 0 {
		t.Fatalf("gates fail on a report that satisfies them: %v", failed)
	}

	doctored := report()
	placement, straggler, partition := doctored.Sections[0].Values, doctored.Sections[1].Values, doctored.Sections[2].Values
	placement["clustered/scheduler-only"], placement["clustered/baseline"] =
		placement["clustered/baseline"], placement["clustered/scheduler-only"]
	straggler["coded_decode_count"] = 0
	delete(partition, "output_divergences")
	want := []suiteGate{gates[0], gates[5], gates[9]}
	if got := failedGates(doctored, gates); !slices.Equal(got, want) {
		t.Errorf("doctored report fails %v, want exactly %v", got, want)
	}

	// At the bound "<=" holds and "<" does not; a missing section fails.
	edge := report()
	edge.Sections = edge.Sections[:2]
	placement = edge.Sections[0].Values
	placement["clustered/scheduler-only"] = 1.05 * placement["clustered/baseline"]
	edge.Sections[1].Values["128/slow-heavy/oracle/spec-q0.90"] = 30
	want = append([]suiteGate{gates[1]}, gates[7:10]...)
	if got := failedGates(edge, gates); !slices.Equal(got, want) {
		t.Errorf("edge report fails %v, want exactly %v", got, want)
	}
}

// The sweeps' output column is a fold over the ids the simulation
// committed, so exactly-once reaches the gate table: a one-cell report
// whose output was folded from a ledger with one committed id dropped, or
// one doubled, trips the output_divergences row and nothing else.
func TestOutputGateCatchesLedgerMutation(t *testing.T) {
	fix, err := newFaultFixture(DefaultFaultParams())
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
	all := suiteGates("straggler-sweep")
	gate := all[len(all)-1:]
	if gate[0].lhs != "output_divergences" {
		t.Fatalf("the straggler sweep's last gate row is %v, want its output_divergences row", gate[0])
	}
	for commits, want := range map[int][]suiteGate{1: nil, 0: gate, 2: gate} {
		r := newReport()
		r.outputCell(fix.out.Output(apps.WordCount{}, ledger(commits)), reference)
		rep := &BenchReport{Sections: []BenchSection{{Name: "straggler-sweep", Report: r}}}
		if got := failedGates(rep, gate); !slices.Equal(got, want) {
			t.Errorf("unit %d committed %d times: failed gates %v, want %v", unit, commits, got, want)
		}
	}
}
