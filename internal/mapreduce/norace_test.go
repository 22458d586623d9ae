//go:build !race

package mapreduce_test

// modelPlans is the model campaign's plan count.
const modelPlans = 1000
