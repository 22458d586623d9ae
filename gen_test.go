package datanet_test

import (
	"strings"
	"testing"

	"datanet"
)

func TestGenerateMovieLogFacade(t *testing.T) {
	recs := datanet.GenerateMovieLog(datanet.MovieLogConfig{Movies: 50, Reviews: 1000, Seed: 1})
	if len(recs) != 1000 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Sub == "" || !strings.HasPrefix(datanet.MovieID(0), "movie-") {
		t.Error("movie keys malformed")
	}
}

func TestGenerateEventLogFacade(t *testing.T) {
	recs := datanet.GenerateEventLog(datanet.EventLogConfig{Events: 500, Seed: 2})
	if len(recs) != 500 {
		t.Fatalf("records = %d", len(recs))
	}
	types := datanet.EventTypes()
	if len(types) < 20 {
		t.Errorf("event types = %d, want >20 as in the GitHub archive", len(types))
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// package state.
	types[0] = "corrupted"
	if datanet.EventTypes()[0] == "corrupted" {
		t.Error("EventTypes returned shared state")
	}
}

func TestGenerateWebLogFacade(t *testing.T) {
	recs := datanet.GenerateWebLog(datanet.WebLogConfig{Requests: 800, Seed: 3})
	if len(recs) != 800 {
		t.Fatalf("records = %d", len(recs))
	}
	if !strings.HasPrefix(datanet.TeamID(5), "team-") {
		t.Errorf("TeamID = %q", datanet.TeamID(5))
	}
}

func TestNewScaledCluster(t *testing.T) {
	full := datanet.NewCluster(4, 2)
	scaled := datanet.NewScaledCluster(4, 2, 256<<10)
	if scaled.N() != 4 || scaled.Node(3).Rack != 1 {
		t.Fatalf("scaled topology: %d nodes, the last on rack %d", scaled.N(), scaled.Node(3).Rack)
	}
	// Rates shrink by blockSize / 64 MiB.
	ratio := scaled.Node(0).CPURate / full.Node(0).CPURate
	want := float64(256<<10) / float64(64<<20)
	if diff := ratio - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("rate scale = %g, want %g", ratio, want)
	}
	// Degenerate block size falls back to unscaled.
	if got := datanet.NewScaledCluster(2, 1, 0).Node(0).CPURate; got != full.Node(0).CPURate {
		t.Errorf("zero block size scale = %g", got)
	}
}

func TestSessionizeFacade(t *testing.T) {
	app := datanet.Sessionize(0)
	if app.Name() != "Sessionize" || app.CostFactor() <= 0 {
		t.Errorf("Sessionize app malformed: %s %g", app.Name(), app.CostFactor())
	}
}
