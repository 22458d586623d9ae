package experiments

// BenchReport is the record of one suite run that RunSuiteBench returns:
// per-section wall-clock cost (what bench/ times) plus each section's
// report, whose Values the gate table checks.
type BenchReport struct {
	// Sections lists every experiment in suite order.
	Sections []BenchSection
}

// BenchSection is one experiment's benchmark record: wall-clock measures
// the simulator, the report's Values measure the simulated cluster.
type BenchSection struct {
	Name        string
	WallSeconds float64
	*Report
}
