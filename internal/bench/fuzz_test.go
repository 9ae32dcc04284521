package bench

import "testing"

// FuzzParseRunSpec drives arbitrary bytes through the whole spec intake
// the CLI and the service share — ParseRunSpec, Normalize, Validate and,
// for an accepted spec, CacheKey. Bad input must come back as an error,
// never as a panic. The seeds run under plain `go test`; explore with
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
		s = s.Normalize()
		if s.Validate() != nil {
			return
		}
		if s.CacheKey() == "" {
			t.Fatalf("accepted spec %+v has an empty cache key", s)
		}
	})
}
