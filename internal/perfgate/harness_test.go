package perfgate

import (
	"errors"
	"testing"
)

// sinkBytes forces the harness test's per-op allocation to escape to the
// heap so the Mallocs counter sees it.
var sinkBytes []byte

// TestMeasureBasics: min <= median, allocs accounted per op, and warmups
// run.
func TestMeasureBasics(t *testing.T) {
	runs := 0
	spec := Spec{
		Name:   "t:allocs",
		N:      1000,
		Warmup: 2,
		Run: func(n int) error {
			runs++
			for i := 0; i < n; i++ {
				sinkBytes = make([]byte, 32)
			}
			return nil
		},
	}
	r, err := Measure(spec, HarnessOptions{Reps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2+5 {
		t.Errorf("runs = %d, want warmup 2 + reps 5", runs)
	}
	if r.Reps != 5 || r.Name != "t:allocs" {
		t.Errorf("result metadata: %+v", r)
	}
	if r.MinNS <= 0 || r.MedianNS < r.MinNS {
		t.Errorf("min %.1f, median %.1f: want 0 < min <= median", r.MinNS, r.MedianNS)
	}
	// One 32-byte make per op: at least one alloc and 32 bytes each.
	if r.AllocsPerOp < 1 || r.AllocsPerOp > 3 {
		t.Errorf("allocs/op = %.2f, want ~1", r.AllocsPerOp)
	}
	if r.BytesPerOp < 32 {
		t.Errorf("bytes/op = %.2f, want >= 32", r.BytesPerOp)
	}
}

func TestMeasureErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := Measure(Spec{Name: "t:err", N: 1, Run: func(int) error { return boom }}, HarnessOptions{Reps: 2})
	if !errors.Is(err, boom) {
		t.Errorf("spec error not propagated: %v", err)
	}
	if _, err := Measure(Spec{Name: "t:zero", N: 0, Run: func(int) error { return nil }}, HarnessOptions{}); err == nil {
		t.Error("N=0 spec accepted")
	}
}

// TestMicroSpecsMeasure runs every hot-path micro spec once through the
// harness: all paths are present, in order, and produce positive timings.
func TestMicroSpecsMeasure(t *testing.T) {
	specs := MicroSpecs()
	want := []string{"micro:alias-draw-k100", "micro:lda-mh-draw", "micro:hmm-mh-draw", "micro:gram-fold-p64", "micro:ps-shard-fold", "micro:runphase-merge-16m", "micro:runphase-wide-10km", "micro:source-stream-64k", "micro:trace-export", "micro:datagen-corpus"}
	if len(specs) != len(want) {
		t.Fatalf("MicroSpecs = %d specs, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		t.Run(want[i], func(t *testing.T) {
			r, err := Measure(s, HarnessOptions{Reps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if r.Name != want[i] {
				t.Errorf("spec %d = %s, want %s", i, r.Name, want[i])
			}
			if r.MinNS <= 0 {
				t.Errorf("%s: min %.2f ns/op, want > 0", r.Name, r.MinNS)
			}
		})
	}
}
