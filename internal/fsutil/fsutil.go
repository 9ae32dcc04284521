// Package fsutil holds the file-output helpers shared by every code
// path that writes an artifact to a user-supplied path (trace exports,
// generated datasets): parent directories are created as needed so a
// path into a fresh results directory succeeds instead of failing with
// a bare "open: no such file or directory".
package fsutil

import (
	"fmt"
	"os"
	"path/filepath"
)

// EnsureParent creates path's parent directories as needed. A path in
// the current directory (no separator, or an explicit ".") needs no
// work and always succeeds.
func EnsureParent(path string) error {
	dir := filepath.Dir(path)
	if dir == "" || dir == "." {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output directory %s: %w", dir, err)
	}
	return nil
}

// Create is os.Create preceded by EnsureParent.
func Create(path string) (*os.File, error) {
	if err := EnsureParent(path); err != nil {
		return nil, err
	}
	return os.Create(path)
}
