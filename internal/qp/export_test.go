package qp

// SolveSimplexLSOracle exposes the projected-gradient reference to the
// external test package, which builds a synthetic city through core (an
// import cycle for an internal test).
var SolveSimplexLSOracle = solveSimplexLSOracle
