// Command bench is the fixture's benchmark: the roots -bench-only sets
// apart from the others.
package main

import "fixture/internal/lib"

var setup = lib.BenchSetup()

func main() { lib.Used(); lib.BenchOnly(setup) }
