//go:build race

package main

// The race detector slows evaluation several-fold, so wall-clock deadlines
// asserted by tests are scaled up under it.
func init() { budgetScale = 10 }
