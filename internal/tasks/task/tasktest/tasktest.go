// Package tasktest holds the chain-identity golden helpers the task
// packages' tests share: a bit-exact digest of a model's state and a
// compare-or-rewrite check against a golden file of "name digest" lines.
package tasktest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlbench/internal/linalg"
)

// Digest returns the SHA-256 over the Float64bits of every value of vs,
// in order: equal digests mean bit-identical model state.
func Digest(vs ...linalg.Vec) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CheckGolden compares got ("name digest" lines) with the golden file at
// path line by line, or rewrites the file when update is set.
func CheckGolden(t *testing.T, path string, got []string, update bool) {
	t.Helper()
	body := strings.Join(got, "\n") + "\n"
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries, want %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("chain changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// StreamDigest returns the first 16 hex digits of the SHA-256 over a
// sequence of per-machine element streams, each written as its element
// count and then, per element, its length and values: equal digests mean
// the machines received the same elements bit for bit. Integer elements
// (documents) are written as exact float64 values.
func StreamDigest[E int | float64, V ~[]E](machines ...[]V) string {
	var all []linalg.Vec
	for _, elems := range machines {
		all = append(all, linalg.Vec{float64(len(elems))})
		for _, e := range elems {
			v := linalg.Vec{float64(len(e))}
			for _, x := range e {
				v = append(v, float64(x))
			}
			all = append(all, v)
		}
	}
	return Digest(all...)[:16]
}

// Datasets is the Dataset values the stream pins run under: the paper
// shape, the two shape scenarios and a partition-only scenario.
var Datasets = []string{"", "skew-light", "skew-heavy", "imbal-8x"}

// CheckPins compares got with want key by key.
func CheckPins(t *testing.T, got, want map[string]string) {
	t.Helper()
	for k, g := range got {
		if want[k] != g {
			t.Errorf("stream %q: digest %s, want %s", k, g, want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d streams pinned, want %d", len(got), len(want))
	}
}
