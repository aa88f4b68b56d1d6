package repository

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenSnapshot feeds arbitrary bytes to Open as repository.json. It
// must return a repository or an error and never panic, and a repository
// it does return must come back unchanged through Save and Open. Seeds in
// testdata/fuzz/FuzzOpenSnapshot: a framed snapshot, a single-object JSON
// one (which Open rejects), a truncated frame, a bad CRC, an oversized
// length, and usage_v1, a snapshot whose entries carry impression counts.
func FuzzOpenSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "repository.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			return
		}
		want := dump(t, r)
		if err := r.Save(path); err != nil {
			t.Fatal(err)
		}
		again, err := Open(path)
		if err != nil {
			t.Fatalf("reopening a saved snapshot: %v", err)
		}
		if d := dump(t, again); d != want {
			t.Fatalf("Save + Open changed the state:\n got %s\nwant %s", d, want)
		}
	})
}

// FuzzRecoverWAL feeds arbitrary bytes to Recover as repository.wal. It
// must never panic or fail, must cut the file back to exactly the prefix
// it applied, and that prefix must recover cleanly to the same state.
// Seeds in testdata/fuzz/FuzzRecoverWAL; usage_v1 holds batched usage
// records with impression counts.
func FuzzRecoverWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		snap, walPath := filepath.Join(dir, "repository.json"), filepath.Join(dir, "repository.wal")
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, stats := recoverAt(t, snap, walPath)
		want := dump(t, r)
		r.Close()
		kept := int64(len(data))
		if stats.TornTail {
			kept = stats.TruncatedAt
		}
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != kept {
			t.Fatalf("WAL is %d bytes after recovery, want %d (stats %+v)", fi.Size(), kept, stats)
		}
		again, stats := recoverAt(t, snap, walPath)
		defer again.Close()
		if d := dump(t, again); d != want || stats.TornTail {
			t.Fatalf("recovering the kept prefix (stats %+v):\n got %s\nwant %s", stats, d, want)
		}
	})
}
