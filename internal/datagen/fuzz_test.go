package datagen

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseSpec drives arbitrary bytes through DatasetSpec intake —
// ParseSpec, Normalize, Validate. Bad input must come back as an error,
// never as a panic. Normalize must be idempotent, and an accepted,
// normalized, valid spec must survive a JSON round trip: marshalled and
// parsed back, it normalizes to an equal value. Explore with
// `go test -run '^$' -fuzz '^FuzzParseSpec$' ./internal/datagen`.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{"name": "d", "corpus": {}}`,
		`{"name": "smoke", "seed": 42, "shards": 16,
		  "corpus": {"docs": 400, "vocab": 2000, "topics": 8, "zipf_s": 1.4, "topic_skew": 1.2, "background": 0.15,
		             "doc_len": {"dist": "lognormal", "mean": 120, "sigma": 0.8}},
		  "gmm": {"points": 500, "dim": 8, "clusters": 5, "separation": 6, "cov_condition": 8, "imbalance": 1.2},
		  "regression": {"points": 300, "dim": 40, "sparsity": 5, "noise": 0.5, "correlation": 0.6},
		  "graph": {"vertices": 1000, "avg_degree": 6, "exponent": 2.2, "min_degree": 2},
		  "partition": {"machines": 4, "imbalance": 2}}`,
		`{"name": "d", "corpus": {"docs": -1, "zipf_s": -3, "doc_len": {"dist": "cauchy"}}}`,
		`{"name": "d", "gmm": {"clusters": 0, "dim": 100000000}}`,
		`{"name": "", "shards": -4}`,
		`{"name": "x", "vocabulary": 5}`,
		`{"name": "x"} {"name": "y"}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		n := s.Normalize()
		if again := n.Normalize(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize not idempotent:\n once  %+v\n twice %+v", n, again)
		}
		if n.Validate() != nil {
			return
		}
		raw, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshalling a valid spec: %v", err)
		}
		back, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("parsing a marshalled valid spec %s: %v", raw, err)
		}
		if back = back.Normalize(); !reflect.DeepEqual(back, n) {
			t.Fatalf("JSON round trip changed the spec:\n before %+v\n after  %+v\n json   %s", n, back, raw)
		}
	})
}
