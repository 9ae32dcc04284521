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
