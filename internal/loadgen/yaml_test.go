package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The YAML-subset reader itself is tested in internal/yamlite; these
// tests cover the profile-level loading built on top of it.

func TestLoadProfileYAMLMatchesJSON(t *testing.T) {
	yamlPath := filepath.Join("..", "..", "profiles", "ramp-burst-drain.yaml")
	p, err := LoadProfile(yamlPath)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "ramp-burst-drain" || p.Compression != 100 || len(p.Templates) != 2 ||
		len(p.Phases) != 3 || len(p.Events) != 3 || p.SLO == nil {
		t.Fatalf("profile did not survive YAML round-trip: %+v", p)
	}
	if !p.Templates[1].UniqueSeed || p.Templates[1].Spec.Figure != "fig1b" {
		t.Fatalf("cold template: %+v", p.Templates[1])
	}
	if p.Events[0].Label != "warmup-done" {
		t.Fatalf("event label: %+v", p.Events[0])
	}

	// The same profile expressed as JSON loads identically.
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := LoadProfile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("YAML and JSON profiles differ:\n%+v\n%+v", p, p2)
	}
}

func TestLoadProfileRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadProfile(write("x.toml", "")); err == nil ||
		!strings.Contains(err.Error(), "unsupported profile extension") {
		t.Fatalf("extension error: %v", err)
	}
	if _, err := LoadProfile(write("x.yaml", "name: t\nrsp: 1")); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadProfile(write("y.yaml", "name: t")); err == nil {
		t.Fatal("invalid profile accepted (no templates)")
	}
	if _, err := LoadProfile(write("z.yaml", "a:\n\tb: 1")); err == nil ||
		!strings.Contains(err.Error(), "tabs are not allowed") {
		t.Fatalf("yamlite error not surfaced: %v", err)
	}
}

// A profile named like a non-finite float loads with that name instead of
// failing in the JSON conversion.
func TestLoadProfileNonFiniteLookingName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.yaml")
	body := "name: Inf\ntemplates:\n  - name: hot\n    spec:\n      figure: fig1a\nphases:\n  - name: p\n    duration_sec: 5\n    rps: 1\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Inf" {
		t.Fatalf("Name = %q, want Inf", p.Name)
	}
}
