package perfgate

import (
	"reflect"
	"testing"
)

// TestServingReplayPinned: the serving replay runs on a fake clock
// against a discrete-event server, so two replays must produce the
// identical Summary, and its key outcomes are pinned in absolute terms.
// A change to serve, loadgen or the autoscaler policy that moves one of
// them fails here; if the move is intended, update the pinned value.
func TestServingReplayPinned(t *testing.T) {
	a, err := servingReplay()
	if err != nil {
		t.Fatal(err)
	}
	b, err := servingReplay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Errorf("summary drifted between replays:\n%+v\nvs\n%+v", a.Summary, b.Summary)
	}
	s := a.Summary
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p99 ms", s.P99Ms, 28.125},
		{"completed", float64(s.Completed), 70},
		{"rejected 429", float64(s.Rejected429), 6},
		{"cache hits", float64(s.CacheHits), 44},
		{"max workers", float64(s.MaxWorkers), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.got <= 0 {
				t.Errorf("%s is %v: the profile no longer exercises it", c.name, c.got)
			} else if c.got != c.want {
				t.Errorf("%s = %v, pinned %v", c.name, c.got, c.want)
			}
		})
	}
}

// TestServingReplaySpecMeasures runs the timed replay spec through the
// harness once: the driver loop, fake server, and timeline aggregation
// all execute inside a measured op.
func TestServingReplaySpecMeasures(t *testing.T) {
	specs := ServingSpecs()
	if len(specs) != 1 || specs[0].Name != "micro:loadgen-replay" {
		t.Fatalf("unexpected serving specs: %+v", specs)
	}
	r, err := Measure(specs[0], HarnessOptions{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.MinNS <= 0 {
		t.Errorf("replay spec measured %v ns/op", r.MinNS)
	}
}
