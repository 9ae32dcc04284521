// Package perfgate pins the reproduction's output and the host-side cost
// of its hot paths. The paper's entire contribution is a table of
// numbers, and three layers of this reproduction (fault recovery,
// host-parallel execution, virtual-clock tracing) can each silently
// shift those numbers or the host work they cost to produce. The
// package holds:
//
//   - Golden-figure snapshots (snapshot.go): every figure's virtual-clock
//     table — per-iteration and init times, Fail cells, recovery notes —
//     serialized as CSV under testdata/golden/ and compared byte-for-byte
//     by TestGoldenFigures. Virtual results are fully deterministic, so
//     any diff is a real semantic change; acknowledge one by regenerating
//     with `go test ./internal/perfgate -run TestGoldenFigures -update`.
//
//   - Absolute allocation ceilings (alloc_test.go) on the streamed
//     partition substrate, the wide RunPhase barrier and the Lasso Gram
//     fold, which fail `go test` directly with no baseline needed.
//
//   - A deterministic serving replay (serving.go): a fixed traffic
//     profile driven through the load replayer against a fake-clock
//     autoscaling server, whose outcome is pinned in absolute terms.
//
//   - A wall-time harness (harness.go) and the micro specs it runs
//     (specs.go, serving.go): warmup then N repetitions, reporting
//     min-of-N and median ns/op plus allocs/op. The repository benchmark
//     (benchmark/) imports these specs for its per-layer probes; it is
//     the one place host wall time is compared between two commits.
package perfgate
