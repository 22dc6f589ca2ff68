package symbolic

// FactorNaive exposes the dense reference elimination to the external
// test package.
var FactorNaive = factorNaive
