package yamlite

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestToJSONSubset(t *testing.T) {
	in := `
# header comment
name: demo
compression: 100
seed: 42
nested:
  a: 1
  b: "quoted # not a comment"
  c: 'single'
  flag: true
  nothing: null
list:
  - 1
  - two
  - key: v
    other: 2.5
blocks:
  - name: x
    spec:
      figure: fig1a
`
	got, err := ToJSON([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(got, &v); err != nil {
		t.Fatalf("invalid JSON %s: %v", got, err)
	}
	want := map[string]any{
		"name":        "demo",
		"compression": 100.0,
		"seed":        42.0,
		"nested": map[string]any{
			"a": 1.0, "b": "quoted # not a comment", "c": "single",
			"flag": true, "nothing": nil,
		},
		"list": []any{1.0, "two", map[string]any{"key": "v", "other": 2.5}},
		"blocks": []any{
			map[string]any{"name": "x", "spec": map[string]any{"figure": "fig1a"}},
		},
	}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("parsed:\n%#v\nwant:\n%#v", v, want)
	}
}

// strconv.ParseFloat accepts nan, inf and infinity, which JSON cannot
// encode: such scalars must come through as strings, not as a marshal
// error without a line number. The YAML 1.2 spellings and an overflowing
// literal are not floats in this subset either.
func TestToJSONNonFiniteScalarsStayStrings(t *testing.T) {
	cases := []struct{ in, want string }{
		{"name: nan", `{"name":"nan"}`},
		{"name: Inf", `{"name":"Inf"}`},
		{"rate: infinity", `{"rate":"infinity"}`},
		{"- NaN", `["NaN"]`},
		{"rate: -Inf", `{"rate":"-Inf"}`},
		{"rate: .nan", `{"rate":".nan"}`},
		{"rate: -.inf", `{"rate":"-.inf"}`},
		{"rate: 1e400", `{"rate":"1e400"}`},
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			got, err := ToJSON([]byte(tc.in))
			if err != nil {
				t.Fatalf("ToJSON(%q): %v", tc.in, err)
			}
			if string(got) != tc.want {
				t.Fatalf("ToJSON(%q) = %s, want %s", tc.in, got, tc.want)
			}
		})
	}
}

func TestToJSONErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"tabs", "a:\n\tb: 1", "tabs are not allowed"},
		{"no colon", "just a bare line", "expected 'key: value'"},
		{"no space after colon", "a:1", "expected a space after ':'"},
		{"bad indent", "a: 1\n   b: 2", "unexpected indentation"},
		{"dup key", "a: 1\na: 2", "duplicate key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ToJSON([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestToJSONEmpty(t *testing.T) {
	got, err := ToJSON([]byte("\n# only comments\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "{}" {
		t.Fatalf("empty document = %s, want {}", got)
	}
}
