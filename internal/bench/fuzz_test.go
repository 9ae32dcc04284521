package bench

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzParseRunSpec drives arbitrary bytes through the whole spec intake
// the CLI and the service share — ParseRunSpec, Normalize, Validate and,
// for an accepted spec, CacheKey. Bad input must come back as an error,
// never as a panic, and every Validate error must match ErrInvalidSpec.
// Normalize must be idempotent, and an accepted, normalized, valid spec
// must survive a JSON round trip: marshalled and parsed back, it
// normalizes to an equal value with the same CacheKey. The seeds run
// under plain `go test`; explore with
// `go test -run '^$' -fuzz '^FuzzParseRunSpec$' ./internal/bench`.
func FuzzParseRunSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"figure": "fig1a"}`,
		`{"figure": "fig1a", "row": "Spark (Python)", "col": "10d/5m", "iters": 1, "scalediv": 0.5}`,
		`{"figure": "fig1a", "row": "Spark (Python)"}`,
		`{"figure": "fig-scale", "machines": 1000, "chunk": 256, "workers": 2}`,
		`{"figure": "fig2", "machines": 500}`,
		`{"figure": "fig-ps", "shards": 2, "staleness": 3}`,
		`{"figure": "fig4b", "sampler": "mhalias", "dataset": "skew-heavy"}`,
		`{"figure": "fig7", "faults": {"failures": 2, "failat": 0.3, "straggle": 4, "ckpt": -1, "snap": 5}}`,
		`{"figure": "fig6", "trace": {"phases": true, "metrics": true, "out": "t.json", "csv": "t.csv"}}`,
		`{"figure": "fig1a", "iters": -1, "scalediv": -2, "seed": 18446744073709551615}`,
		`{"figure": "nope", "sampler": "turbo"}`,
		`{"figgure": "fig1a"}`,
		`[1, 2]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseRunSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil && !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("Validate error %q does not match ErrInvalidSpec", err)
		}
		n := s.Normalize()
		if again := n.Normalize(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize not idempotent:\n once  %+v\n twice %+v", n, again)
		}
		if err := n.Validate(); err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("Validate error %q does not match ErrInvalidSpec", err)
			}
			return
		}
		key := n.CacheKey()
		if key == "" {
			t.Fatalf("accepted spec %+v has an empty cache key", n)
		}
		raw, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshalling a valid spec: %v", err)
		}
		back, err := ParseRunSpec(raw)
		if err != nil {
			t.Fatalf("parsing a marshalled valid spec %s: %v", raw, err)
		}
		if back = back.Normalize(); !reflect.DeepEqual(back, n) {
			t.Fatalf("JSON round trip changed the spec:\n before %+v\n after  %+v\n json   %s", n, back, raw)
		}
		if k := back.CacheKey(); k != key {
			t.Fatalf("JSON round trip changed the cache key %s -> %s (json %s)", key, k, raw)
		}
	})
}
