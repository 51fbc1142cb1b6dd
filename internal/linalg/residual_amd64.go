package linalg

// residualLanesAsm adds, for the first n columns of one row, the squares
// of v − w·h onto four partial sums keyed by column mod 4 and writes them
// to lanes: w is the row's r weights, h the first of r rows of ldh
// elements. n must be a multiple of 4 and r at least 1. Every product and
// sum rounds separately (no FMA) in the portable loop's order, so the
// lanes are bit-identical to residualLanes' over the same columns.
//
//go:noescape
func residualLanesAsm(v, w, h *float64, ldh, r, n int, lanes *[4]float64)

// residualLanesAsm32 is residualLanesAsm for float32 rows, eight columns to
// a vector: the arithmetic up to the difference runs at float32, the
// squares accumulate in float64 with the low half of each vector added
// before the high one. n must be a multiple of 8.
//
//go:noescape
func residualLanesAsm32(v, w, h *float32, ldh, r, n int, lanes *[4]float64)
