//go:build race

package mapreduce_test

// modelPlans is the model campaign's plan count: a -race build runs a
// tenth of the 1 000 plans a plain run checks.
const modelPlans = 100
