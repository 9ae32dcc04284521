package main

// Digests of the first requests of each serve workload's stream at seed
// 1 (see TestRequestStreamsByteStable). They move only when a workload
// file, the generators or RunSpec's JSON encoding move — a change of
// benchmark inputs, which needs a new baseline.
const (
	goldenCold1 = "cddcdc9d05a59bfe"
	goldenZipf1 = "9643f9bfd25da360"
)
