package yamlite

import (
	"encoding/json"
	"testing"
)

// FuzzToJSON: any input either fails with an error or converts to valid
// JSON — never a panic, and never output a strict JSON parser downstream
// would choke on. Explore with
// `go test -run '^$' -fuzz '^FuzzToJSON$' ./internal/yamlite`.
func FuzzToJSON(f *testing.F) {
	for _, seed := range []string{
		"name: demo\nseed: 42\nnested:\n  a: 1\n  b: \"quoted # not a comment\"\n  c: 'it''s'\nlist:\n  - 1\n  - key: v\n    other: 2.5\n",
		"name: nan\n",
		"- NaN\n- Inf\n- -infinity\n",
		"rate: 1e400\n",
		"a:\n  - - 1\n    - 2\n",
		"a: \"\\u00e9\\x\"\n",
		"a: ~\nb: null\nc: true\nd: false\n",
		"a:\n\tb: 1\n",
		"a: 1\na: 2\n",
		"a:1\n",
		"# only comments\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := ToJSON(data)
		if err != nil {
			return
		}
		if !json.Valid(out) {
			t.Fatalf("ToJSON(%q) = %q, not valid JSON", data, out)
		}
	})
}
