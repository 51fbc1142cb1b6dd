// Package lib is the gated package of the deadcode fixture.
package lib

// Used is reached from cmd/app.
func Used() {}

// Dead is reached from nothing.
func Dead() {}

// Kept is reached from nothing but is the kind of API allow.txt keeps; it
// is the only caller of keptHelper.
func Kept() { keptHelper() }

func keptHelper() {}
