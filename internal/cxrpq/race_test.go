//go:build race

package cxrpq_test

// The race detector slows evaluation several-fold, so wall-clock budgets
// asserted by tests are scaled up under it.
func init() { budgetScale = 10 }
