package fsutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCreateCreatesParents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep", "dir", "f.txt")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestEnsureParentBareName(t *testing.T) {
	if err := EnsureParent("plain.json"); err != nil {
		t.Fatalf("bare file name must need no directory work: %v", err)
	}
}
