// Command datanet-bench regenerates every table and figure of the paper's
// evaluation on the simulated substrate and prints them as text tables,
// series and sparklines. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers.
//
// Usage:
//
//	datanet-bench                    # run the full suite
//	datanet-bench -parallel 4        # the same bytes, on 4 workers
//	datanet-bench -only fig5         # run one experiment; -h lists the names
//	datanet-bench -csv DIR -html OUT # export the figures' series and an HTML report
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"datanet/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datanet-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run a single experiment of the suite: "+strings.Join(experiments.SectionNames(), ", "))
	csvDir := fs.String("csv", "", "also write the figure series as CSV files into this directory")
	htmlOut := fs.String("html", "", "also write a self-contained HTML report (inline SVG) to this path")
	workers := fs.Int("parallel", 1, "worker-pool size for independent suite experiments (output is identical at any count)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers < 1 {
		fmt.Fprintln(stderr, "datanet-bench: -parallel must be at least 1")
		return 2
	}
	if err := bench(stdout, *only, *csvDir, *htmlOut, *workers); err != nil {
		fmt.Fprintln(stderr, "datanet-bench:", err)
		return 1
	}
	return 0
}

// bench writes the requested exports from one run of the report sections,
// then runs the named experiment; with no export and no name it runs the
// whole suite.
func bench(stdout io.Writer, only, csvDir, htmlOut string, workers int) error {
	exporting := csvDir != "" || htmlOut != ""
	if exporting {
		files, err := experiments.Export(csvDir, htmlOut)
		if err != nil {
			return err
		}
		for _, f := range files {
			fmt.Fprintln(stdout, "wrote", f)
		}
	}
	if only != "" {
		return experiments.RunSection(stdout, only)
	}
	if exporting {
		return nil
	}
	_, err := experiments.RunSuiteBench(stdout, workers)
	return err
}
