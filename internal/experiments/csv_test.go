package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datanet/internal/stats"
)

func TestFigureCSVMethods(t *testing.T) {
	env := smallEnv(t)

	r5, err := Fig5(env)
	if err != nil {
		t.Fatal(err)
	}
	if csv := r5.CSV(); !strings.HasPrefix(csv, "x,without_datanet_mb,with_datanet_mb\n") {
		t.Errorf("fig5 CSV header: %q", strings.SplitN(csv, "\n", 2)[0])
	}

	r2 := Fig2(stats.Gamma{}, 0, nil)
	csv := r2.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(r2.Sizes)+1 {
		t.Errorf("fig2 CSV rows = %d, want %d", len(lines)-1, len(r2.Sizes)+1)
	}

	r10, err := Fig10(env, []float64{0.3, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if csv := r10.CSV(); !strings.Contains(csv, "max_over_avg") {
		t.Error("fig10 CSV missing series")
	}

	r9, err := Fig9(env, 10)
	if err != nil {
		t.Fatal(err)
	}
	if csv := r9.CSV(); strings.Count(csv, "\n") != 11 { // header + 10 points
		t.Errorf("fig9 CSV rows: %d", strings.Count(csv, "\n"))
	}
}

func TestWriteCSVSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the figure experiments; skipped in -short")
	}
	dir := filepath.Join(t.TempDir(), "figs")
	files, err := WriteCSVSuite(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 {
		t.Fatalf("wrote %d files, want 8", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || !strings.HasPrefix(string(data), "x,") {
			t.Errorf("%s: malformed CSV", f)
		}
	}
}
