package diag

import (
	"math"
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/models/lasso"
	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

func TestMeanVar(t *testing.T) {
	m, v := MeanVar([]float64{1, 2, 3, 4})
	if m != 2.5 {
		t.Errorf("mean = %v", m)
	}
	if math.Abs(v-5.0/3.0) > 1e-12 {
		t.Errorf("variance = %v", v)
	}
	if m, v := MeanVar(nil); m != 0 || v != 0 {
		t.Errorf("empty = %v, %v", m, v)
	}
}

func TestAutocorrIID(t *testing.T) {
	rng := randgen.New(1)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Norm()
	}
	if r := Autocorr(xs, 0); math.Abs(r-1) > 0.01 {
		t.Errorf("lag-0 autocorr = %v, want 1", r)
	}
	if r := Autocorr(xs, 5); math.Abs(r) > 0.05 {
		t.Errorf("iid lag-5 autocorr = %v, want ~0", r)
	}
}

func TestAutocorrAR1(t *testing.T) {
	// x_t = 0.9 x_{t-1} + noise has lag-1 autocorrelation ~0.9.
	rng := randgen.New(2)
	xs := make([]float64, 50000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.9*xs[i-1] + rng.Norm()
	}
	if r := Autocorr(xs, 1); math.Abs(r-0.9) > 0.03 {
		t.Errorf("AR(1) lag-1 autocorr = %v, want ~0.9", r)
	}
}

func TestESSOrdering(t *testing.T) {
	rng := randgen.New(3)
	iid := make([]float64, 5000)
	sticky := make([]float64, 5000)
	for i := range iid {
		iid[i] = rng.Norm()
		if i > 0 {
			sticky[i] = 0.95*sticky[i-1] + rng.Norm()
		}
	}
	essIID, essSticky := ESS(iid), ESS(sticky)
	if essIID < 3000 {
		t.Errorf("iid ESS = %v, want near n", essIID)
	}
	if essSticky > essIID/5 {
		t.Errorf("sticky chain ESS %v should be far below iid %v", essSticky, essIID)
	}
}

func TestESSBounds(t *testing.T) {
	if got := ESS([]float64{1, 2}); got != 2 {
		t.Errorf("short chain ESS = %v", got)
	}
	if got := ESS(nil); got != 0 {
		t.Errorf("empty chain ESS = %v, want 0", got)
	}
	// A constant chain carries exactly one draw's worth of information.
	constant := make([]float64, 100)
	if got := ESS(constant); got != 1 {
		t.Errorf("constant chain ESS = %v, want 1", got)
	}
	for i := range constant {
		constant[i] = 7.5
	}
	if got := ESS(constant); got != 1 {
		t.Errorf("nonzero constant chain ESS = %v, want 1", got)
	}
}

func TestRHatConstantChains(t *testing.T) {
	// Identical constant chains are trivially mixed.
	same, err := RHat([][]float64{{2, 2, 2}, {2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if same != 1 {
		t.Errorf("identical constant chains R-hat = %v, want 1", same)
	}
	// Constant chains stuck at different values can never mix — this used
	// to report a perfect 1 because within-chain variance is zero.
	apart, err := RHat([][]float64{{1, 1, 1}, {5, 5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(apart, 1) {
		t.Errorf("separated constant chains R-hat = %v, want +Inf", apart)
	}
}

func TestRHatMixedVsUnmixed(t *testing.T) {
	rng := randgen.New(4)
	mk := func(offset float64) []float64 {
		xs := make([]float64, 2000)
		for i := range xs {
			xs[i] = offset + rng.Norm()
		}
		return xs
	}
	mixed, err := RHat([][]float64{mk(0), mk(0), mk(0)})
	if err != nil {
		t.Fatal(err)
	}
	if mixed > 1.05 {
		t.Errorf("mixed chains R-hat = %v, want ~1", mixed)
	}
	unmixed, err := RHat([][]float64{mk(0), mk(5), mk(-5)})
	if err != nil {
		t.Fatal(err)
	}
	if unmixed < 1.5 {
		t.Errorf("unmixed chains R-hat = %v, want >> 1", unmixed)
	}
}

func TestRHatErrors(t *testing.T) {
	if _, err := RHat([][]float64{{1, 2, 3}}); err == nil {
		t.Error("single chain should error")
	}
	if _, err := RHat([][]float64{{1, 2, 3}, {1, 2}}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := RHat([][]float64{{1}, {1}}); err == nil {
		t.Error("too-short chains should error")
	}
}

// TestLassoChainMixes runs the paper's observation end to end: the
// Bayesian Lasso "converges very quickly" — independent chains reach
// R-hat ~1 on sigma^2 within a few dozen iterations.
func TestLassoChainMixes(t *testing.T) {
	runChain := func(seed uint64) []float64 {
		rng := randgen.New(seed)
		const n, p = 500, 8
		data := workload.GenRegression(rng, workload.SparseBeta(randgen.New(9), p, 3), n, workload.RegressionConfig{})
		xtx := linalg.NewMat(p, p)
		xty := linalg.NewVec(p)
		for i, x := range data.X {
			xtx.AddOuter(1, x, x)
			for j := range x {
				xty[j] += x[j] * data.Y[i]
			}
		}
		h := lasso.Hyper{Lambda: 1, P: p}
		st := lasso.Init(p)
		var draws []float64
		for iter := 0; iter < 120; iter++ {
			lasso.SampleInvTau2(rng, h, st)
			if err := lasso.SampleBeta(rng, st, xtx, xty); err != nil {
				t.Fatal(err)
			}
			var sse float64
			for i, x := range data.X {
				r := data.Y[i] - x.Dot(st.Beta)
				sse += r * r
			}
			lasso.SampleSigma2(rng, st, n, sse)
			if iter >= 20 {
				draws = append(draws, st.Sigma2)
			}
		}
		return draws
	}
	// Two chains over the same planted coefficients with independent
	// randomness; the sigma^2 posteriors must agree.
	a, b := runChain(100), runChain(100_000)
	r, err := RHat([][]float64{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if r > 1.3 {
		t.Errorf("Lasso sigma^2 chains did not mix: R-hat = %v", r)
	}
	if e := ESS(a); e < 10 {
		t.Errorf("ESS = %v suspiciously low", e)
	}
}
