// Package testutil is the fixture's test-support package: exempt by rule.
package testutil

// Helper is reached from nothing, as a test helper is.
func Helper() {}
