package repository

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRecoverEqualsLiveRandomized is the whole-store property test: seeded
// op sequences across two tenants, a snapshot in the middle and more ops
// after it; recovery from snapshot + WAL must reproduce the live state
// byte for byte. It also holds across a crash between the snapshot's
// rename and the WAL reset (the old log still on disk beside the new
// snapshot), and through ExportState/InstallState.
func TestRecoverEqualsLiveRandomized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
		r, _ := recoverAt(t, snap, walPath)
		randomOps(t, r, rng, 40+rng.Intn(80))

		// Crash between rename and reset: snapshot, then put the pre-
		// snapshot log back. Every record in it is covered by the snapshot.
		oldWAL, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Snapshot(snap, uint64(rng.Intn(int(r.Seq())+1))); err != nil {
			t.Fatal(err)
		}
		want := dump(t, r)
		crashDir := t.TempDir()
		copyFile(t, snap, filepath.Join(crashDir, "repo.json"))
		if err := os.WriteFile(filepath.Join(crashDir, "repo.wal"), oldWAL, 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats := recoverAt(t, filepath.Join(crashDir, "repo.json"), filepath.Join(crashDir, "repo.wal"))
		if d := dump(t, got); d != want || stats.Replayed != 0 {
			t.Fatalf("seed %d: crash before WAL reset (stats %+v):\n got %s\nwant %s", seed, stats, d, want)
		}
		checkPrints(t, got, true)
		got.Close()

		// Snapshot + WAL tail.
		randomOps(t, r, rng, 20+rng.Intn(40))
		want = dump(t, r)
		got, stats = recoverAt(t, snap, walPath)
		if d := dump(t, got); d != want || !stats.SnapshotLoaded {
			t.Fatalf("seed %d: snapshot + WAL (stats %+v):\n got %s\nwant %s", seed, stats, d, want)
		}
		checkPrints(t, got, false)
		got.Close()

		state, _, err := r.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		installed := New()
		if err := installed.InstallState(state); err != nil {
			t.Fatal(err)
		}
		if d := dump(t, installed); d != want {
			t.Fatalf("seed %d: InstallState:\n got %s\nwant %s", seed, d, want)
		}
		checkPrints(t, installed, true)
		r.Close()
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsSingleObjectSnapshot: a snapshot without the magic line
// — such as the single-object JSON snapshot written before snapshots were
// framed — fails Open and Recover with an error that says so, and
// Recover leaves the file as it found it.
func TestOpenRejectsSingleObjectSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "repo.json")
	old := []byte(`{"version":1,"nextId":0,"seq":0,"order":[],"entries":{}}`)
	if err := os.WriteFile(snap, old, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "single-object JSON snapshots are no longer read"
	if _, err := Open(snap); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v; want an error saying %q", err, want)
	}
	if _, _, err := Recover(snap, filepath.Join(dir, "repo.wal"), nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover = %v; want an error saying %q", err, want)
	}
	if b, _ := os.ReadFile(snap); !bytes.Equal(b, old) {
		t.Fatalf("Recover rewrote the snapshot: %.40q", b)
	}
}

// TestSnapshotDamageFailsOpen: a snapshot is all or nothing. Flipping any
// byte or cutting the file at any offset — frame boundaries included —
// must make Open fail, never load a partial repository; InstallState
// rejects the same damage and leaves the repository as it was.
func TestSnapshotDamageFailsOpen(t *testing.T) {
	r := New()
	randomOps(t, r, rand.New(rand.NewSource(3)), 12)
	var buf bytes.Buffer
	if err := r.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if bytes.Contains(full, []byte(`"usage":{}`)) || bytes.Contains(full, []byte(`"order"`)) {
		t.Error("snapshot carries an empty usage object or an order array")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")
	open := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		return err
	}
	if err := open(full); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	for off := 0; off < len(full); off++ {
		if open(full[:off]) == nil {
			t.Fatalf("snapshot cut at %d of %d bytes opened", off, len(full))
		}
		bad := append([]byte(nil), full...)
		bad[off] ^= 0xFF
		if open(bad) == nil {
			t.Fatalf("snapshot with byte %d flipped opened", off)
		}
	}

	installed := New()
	before := dump(t, installed)
	for _, cut := range []int{len(snapshotMagic), len(full) / 2, len(full) - 1} {
		if err := installed.InstallState(full[:cut]); err == nil {
			t.Fatalf("InstallState accepted a stream cut at %d", cut)
		}
	}
	if dump(t, installed) != before {
		t.Fatal("a rejected InstallState changed the repository")
	}

	v3 := append([]byte("schemr-snapshot/3\n"), full[len(snapshotMagic):]...)
	if err := open(v3); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future snapshot version: err = %v", err)
	}
}

// A corrupt header declaring a huge frame must not allocate it: the
// reader checks the declared length against the bytes actually left.
func TestWALCorruptLengthDoesNotAllocate(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "repo.wal")
	data := make([]byte, 24)
	binary.LittleEndian.PutUint32(data[0:4], 60<<20)
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, stats := recoverAt(t, filepath.Join(dir, "repo.json"), walPath)
	runtime.ReadMemStats(&after)
	r.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("recovery allocated %d bytes for a 24-byte WAL", alloc)
	}
	if !stats.TornTail || stats.TruncatedAt != 0 {
		t.Errorf("stats = %+v, want a torn tail at 0", stats)
	}
}
