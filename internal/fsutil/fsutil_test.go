package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new contents")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new contents" {
		t.Fatalf("file = %q, %v; want the new contents", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestWriteFileAtomicFailedWriteKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	old := []byte("old contents\x00\xff")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(old) {
		t.Fatalf("file = %q, %v; want the old bytes %q", got, err, old)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "state")
	called := false
	err := WriteFileAtomic(path, func(w io.Writer) error {
		called = true
		return nil
	})
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if called {
		t.Fatal("write callback ran although the temp file could not be created")
	}
}
