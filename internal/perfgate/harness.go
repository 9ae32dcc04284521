package perfgate

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// DefaultReps is the default timed repetitions per spec. Five reps keep
// min-of-N and the median meaningful on noisy shared runners (VM steal
// windows routinely inflate one or two reps by 1.5x; the min survives
// if any single rep is clean, the median if three are).
const DefaultReps = 5

// Spec is one timed benchmark: Run must execute exactly n operations of
// the measured code path. Fixture construction belongs in the closure
// that builds the Spec, not in Run, so only the hot path is timed.
type Spec struct {
	Name   string
	N      int // operations per repetition
	Warmup int // untimed repetitions before measuring
	Run    func(n int) error
}

// Result is one measured benchmark. MinNS is the noise-robust statistic
// (the fastest repetition is the least-perturbed one); MedianNS guards
// against a lucky single repetition.
type Result struct {
	AllocsPerOp float64
	BytesPerOp  float64
	MedianNS    float64
	MinNS       float64
	Name        string
	Reps        int
}

// HarnessOptions tunes the measurement loop.
type HarnessOptions struct {
	// Reps is the number of timed repetitions per spec (default
	// DefaultReps).
	Reps int
}

// acc accumulates one spec's repetitions.
type acc struct {
	perOp  []float64
	allocs float64
	bytes  float64
}

// timeRep runs one timed repetition of spec. The forced GC collects the
// previous repetitions' garbage outside the timed window, so collector
// pacing cannot land on random reps.
func timeRep(spec Spec, rep int, a *acc) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := spec.Run(spec.N)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("perfgate: %s rep %d: %w", spec.Name, rep, err)
	}
	a.perOp = append(a.perOp, float64(wall.Nanoseconds())/float64(spec.N))
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(spec.N)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(spec.N)
	if rep == 0 || allocs < a.allocs {
		a.allocs = allocs
	}
	if rep == 0 || bytes < a.bytes {
		a.bytes = bytes
	}
	return nil
}

func (a *acc) result(name string) Result {
	sort.Float64s(a.perOp)
	return Result{
		Name:        name,
		Reps:        len(a.perOp),
		MinNS:       a.perOp[0],
		MedianNS:    a.perOp[len(a.perOp)/2],
		AllocsPerOp: a.allocs,
		BytesPerOp:  a.bytes,
	}
}

func warmup(spec Spec) error {
	if spec.N <= 0 {
		return fmt.Errorf("perfgate: spec %s has N=%d", spec.Name, spec.N)
	}
	for i := 0; i < spec.Warmup; i++ {
		if err := spec.Run(spec.N); err != nil {
			return fmt.Errorf("perfgate: %s warmup: %w", spec.Name, err)
		}
	}
	return nil
}

// Measure runs one spec through the warmup-then-N-repetitions loop and
// aggregates wall ns/op and allocs/op. Allocation counts come from the
// global runtime counters, so the harness assumes it is the only load on
// the process; the minimum across repetitions discards stray background
// allocations.
func Measure(spec Spec, o HarnessOptions) (Result, error) {
	reps := o.Reps
	if reps <= 0 {
		reps = DefaultReps
	}
	if err := warmup(spec); err != nil {
		return Result{}, err
	}
	a := acc{perOp: make([]float64, 0, reps)}
	for i := 0; i < reps; i++ {
		if err := timeRep(spec, i, &a); err != nil {
			return Result{}, err
		}
	}
	return a.result(spec.Name), nil
}
