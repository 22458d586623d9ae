// Command datagen generates synthetic datasets in the repository's binary
// record format (see internal/records): the movie-review log with content
// clustering and the GitHub-style event log. The files feed cmd/datanet.
//
// Usage:
//
//	datagen -type movies -records 200000 -movies 2000 -out reviews.dnr
//	datagen -type events -records 250000 -out events.dnr
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"datanet/internal/gen"
	"datanet/internal/records"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	typ := gen.Kind("movies")
	fs.Var(&typ, "type", "dataset type: movies | events | weblog")
	var (
		out     = fs.String("out", "dataset.dnr", "output path")
		n       = fs.Int("records", 100000, "record count")
		movies  = fs.Int("movies", 2000, "movie catalogue size (movies type)")
		span    = fs.Int("span", 365, "time span in days")
		seed    = fs.Int64("seed", 42, "generation seed")
		quietly = fs.Bool("q", false, "suppress the summary")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	recs := typ.Generate(*n, *movies, *span, *seed)
	if err := write(*out, recs); err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 1
	}
	if !*quietly {
		fmt.Fprintf(stdout, "wrote %d records (%s) to %s\n", len(recs), bytesHuman(records.TotalSize(recs)), *out)
	}
	return 0
}

// write encodes recs into a new file at path.
func write(path string, recs []records.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := records.NewWriter(f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func bytesHuman(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
