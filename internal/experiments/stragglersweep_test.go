package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A reduced-scale sweep must show the headline effects the gate rows pin
// on the full run: both mitigations beat the unmitigated makespan under
// the heavy-slowdown plan, backups win, decodes happen, and no cell ever
// diverges from the fault-free output.
func TestStragglerSweepSmall(t *testing.T) {
	r := ran(t, "straggler mitigation")(StragglerSweep([]int{32}, MovieParams{}))
	wantRows(t, r, 2*2*len(stragglerArms))
	none := val(t, r, "32/slow-heavy/oracle/none")
	if none <= 0 {
		t.Fatalf("missing unmitigated cell: %v", keys(r))
	}
	for _, arm := range []string{"spec-q0.90", "coded-r0.70"} {
		if got := val(t, r, "32/slow-heavy/oracle/"+arm); got >= none {
			t.Errorf("%s makespan %.2f did not beat unmitigated %.2f", arm, got, none)
		}
	}
	for _, cell := range cells(r, "/filter_end") {
		p50, p90, p99, filterEnd := val(t, r, cell+"/p50"), val(t, r, cell+"/p90"), val(t, r, cell+"/p99"), val(t, r, cell+"/filter_end")
		if !(p50 <= p90 && p90 <= p99 && p99 <= filterEnd) {
			t.Errorf("%s: tail quantiles not monotone: %.2f/%.2f/%.2f vs filter %.2f", cell, p50, p90, p99, filterEnd)
		}
		if strings.HasSuffix(cell, "/none") &&
			(val(t, r, cell+"/launches") != 0 || val(t, r, cell+"/decodes") != 0 || val(t, r, cell+"/wasted") != 0) {
			t.Errorf("unmitigated cell %s billed mitigation work", cell)
		}
	}
	if val(t, r, "speculative_wins") == 0 || val(t, r, "coded_decode_count") == 0 {
		t.Errorf("sweep exercised no mitigation: %v", r.Values)
	}
	if val(t, r, "output_divergences") != 0 || strings.Contains(r.String(), "DIVERGED") {
		t.Errorf("output divergences: %v", val(t, r, "output_divergences"))
	}
}

// Each scale's cells run on GOMAXPROCS goroutines and are reported in cell
// order, so one worker and four give the same text and the same Values,
// float sums included. Under -race this also checks the concurrent cells,
// which share the fixture's map output and fault plans.
func TestStragglerSweepSameAtAnyWorkerCount(t *testing.T) {
	sweep := func(procs int) *Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return ran(t, "straggler mitigation")(StragglerSweep([]int{32}, MovieParams{}))
	}
	one, four := sweep(1), sweep(4)
	if one.String() != four.String() {
		t.Errorf("report text differs between 1 and 4 workers:\n%s\n---\n%s", one, four)
	}
	if !reflect.DeepEqual(one.Values, four.Values) {
		t.Errorf("report values differ between 1 and 4 workers:\n%v\n%v", one.Values, four.Values)
	}
}
