package randgen

import (
	"strings"
	"testing"
)

func TestParseSamplerTier(t *testing.T) {
	cases := []struct {
		in   string
		want SamplerTier
	}{
		{"", TierDense},
		{"dense", TierDense},
		{"alias", TierAlias},
		{"mhalias", TierMHAlias},
	}
	for _, c := range cases {
		got, err := ParseSamplerTier(c.in)
		if err != nil {
			t.Fatalf("ParseSamplerTier(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSamplerTier(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseSamplerTier("turbo"); err == nil {
		t.Error("ParseSamplerTier(turbo) should fail")
	}
	for _, name := range []string{"dense", "alias", "mhalias"} {
		tier, err := ParseSamplerTier(name)
		if err != nil {
			t.Fatalf("tier %q unparseable: %v", name, err)
		}
		if tier.String() != name {
			t.Errorf("round trip %q -> %v -> %q", name, tier, tier.String())
		}
	}
}

// TestCategoricalSafeMatchesCategorical: with a valid weight vector the
// safe helper consumes and returns exactly what Categorical would.
func TestCategoricalSafeMatchesCategorical(t *testing.T) {
	w := []float64{0.2, 0, 3, 1.5}
	a, b := New(77), New(77)
	for i := 0; i < 1000; i++ {
		if got, want := a.CategoricalSafe(w), b.Categorical(w); got != want {
			t.Fatalf("draw %d: CategoricalSafe = %d, Categorical = %d", i, got, want)
		}
	}
}

// TestCategoricalSafeUnderflow: an all-zero vector falls back to the
// uniform Intn draw on the same stream position.
func TestCategoricalSafeUnderflow(t *testing.T) {
	w := make([]float64, 7)
	a, b := New(5), New(5)
	seen := make(map[int]bool)
	for i := 0; i < 500; i++ {
		got, want := a.CategoricalSafe(w), b.Intn(len(w))
		if got != want {
			t.Fatalf("draw %d: CategoricalSafe = %d, Intn = %d", i, got, want)
		}
		seen[got] = true
	}
	if len(seen) != len(w) {
		t.Errorf("uniform fallback visited %d of %d outcomes", len(seen), len(w))
	}
}

// The rejection of an unknown tier names every valid one: the CLI and
// the service pass this error to the user as it is.
func TestParseSamplerTierErrorNamesValidTiers(t *testing.T) {
	_, err := ParseSamplerTier("turbo")
	if err == nil {
		t.Fatal("turbo accepted")
	}
	for _, name := range []string{`"turbo"`, "dense", "alias", "mhalias"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %s", err, name)
		}
	}
}
