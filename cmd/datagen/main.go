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
	"flag"
	"fmt"
	"os"

	"datanet/internal/gen"
	"datanet/internal/records"
)

func main() {
	typ := gen.Kind("movies")
	flag.Var(&typ, "type", "dataset type: movies | events | weblog")
	var (
		out     = flag.String("out", "dataset.dnr", "output path")
		n       = flag.Int("records", 100000, "record count")
		movies  = flag.Int("movies", 2000, "movie catalogue size (movies type)")
		span    = flag.Int("span", 365, "time span in days")
		seed    = flag.Int64("seed", 42, "generation seed")
		quietly = flag.Bool("q", false, "suppress the summary")
	)
	flag.Parse()
	recs := typ.Generate(*n, *movies, *span, *seed)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	w := records.NewWriter(f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if !*quietly {
		fmt.Printf("wrote %d records (%s) to %s\n", len(recs), bytesHuman(records.TotalSize(recs)), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
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
