package repository

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func recoverAt(t *testing.T, snapshotPath, walPath string) (*Repository, RecoveryStats) {
	t.Helper()
	r, stats, err := Recover(snapshotPath, walPath, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return r, stats
}

func TestRecoverFreshDirIsEmpty(t *testing.T) {
	dir := t.TempDir()
	r, stats := recoverAt(t, filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal"))
	defer r.Close()
	if stats.SnapshotLoaded || stats.Replayed != 0 || stats.TornTail {
		t.Errorf("fresh recovery stats = %+v", stats)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRecoverRoundTripWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, wal)
	idA, err := r.Put(sch("clinic", "patient", "height"))
	if err != nil {
		t.Fatal(err)
	}
	idB, _ := r.Put(sch("orders", "sku", "qty"))
	if !r.Tag(idA, "health", "demo") {
		t.Fatal("tag failed")
	}
	if err := r.AddComment(idA, Comment{Author: "kc", Text: "nice", Rating: 4}); err != nil {
		t.Fatal(err)
	}
	if !r.Delete(idB) {
		t.Fatal("delete failed")
	}
	r.RecordImpressions(idA)
	r.RecordSelection(idA)
	if err := r.FlushUsage(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, r)
	// Crash simulation: no Close, no Save — the WAL is all there is.

	got, stats := recoverAt(t, snap, wal)
	defer got.Close()
	if stats.SnapshotLoaded {
		t.Error("no snapshot was written, but one loaded")
	}
	if stats.TornTail {
		t.Error("unexpected torn tail")
	}
	if d := dump(t, got); d != want {
		t.Errorf("recovered state differs:\n got %s\nwant %s", d, want)
	}
	if u := got.Usage(idA); u.Impressions != 1 || u.Selections != 1 {
		t.Errorf("usage lost: %+v", u)
	}
	r.Close()
}

// TestTornTailEveryOffset is the crash-recovery property test: a WAL of K
// acknowledged mutations is truncated at every byte offset, and separately
// corrupted (one byte flipped) at every offset, and recovery must yield
// exactly the state as of the last record wholly intact — the prefix of
// fsync-acknowledged mutations, nothing more, nothing less.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)

	// One dump and one WAL end-offset per acknowledged record. states[k]
	// is the expected recovery for any damage inside record k+1;
	// bounds[k] is where record k ends (bounds[0] = 0 = empty log).
	states := []string{dump(t, r)}
	var bounds []int64
	bounds = append(bounds, 0)
	ack := func() {
		t.Helper()
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, fi.Size())
		states = append(states, dump(t, r))
	}

	idA, err := r.Put(sch("clinic", "patient", "height", "gender"))
	if err != nil {
		t.Fatal(err)
	}
	ack()
	idB, _ := r.Put(sch("orders", "sku", "qty"))
	ack()
	r.Tag(idA, "health")
	ack()
	r.AddComment(idB, Comment{Author: "a", Text: "hm", Rating: 2})
	ack()
	r.RecordImpressions(idA, idB)
	if err := r.FlushUsage(); err != nil {
		t.Fatal(err)
	}
	ack()
	r.Delete(idB)
	ack()
	s3 := sch("clinic-v2", "patient", "height", "gender", "dob")
	s3.ID = idA
	if _, err := r.Put(s3); err != nil {
		t.Fatal(err)
	}
	ack()
	r.Close()

	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != bounds[len(bounds)-1] {
		t.Fatalf("bookkeeping: file %d bytes, last bound %d", len(full), bounds[len(bounds)-1])
	}

	// expectFor maps a damaged byte offset (or truncation length) to the
	// expected recovered state: the last record ending at or before it.
	expectFor := func(off int64) string {
		k := 0
		for k+1 < len(bounds) && bounds[k+1] <= off {
			k++
		}
		return states[k]
	}

	scratch := t.TempDir()
	damagedWAL := filepath.Join(scratch, "repo.wal")
	noSnap := filepath.Join(scratch, "repo.json")
	check := func(off int64, data []byte, mode string) {
		t.Helper()
		if err := os.WriteFile(damagedWAL, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _ := recoverAt(t, noSnap, damagedWAL)
		if d := dump(t, got); d != expectFor(off) {
			t.Fatalf("%s at %d: recovered state is not the acknowledged prefix:\n got %s\nwant %s",
				mode, off, d, expectFor(off))
		}
		got.Close()
	}

	for off := int64(0); off <= int64(len(full)); off++ {
		check(off, full[:off], "truncate")
	}
	for off := int64(0); off < int64(len(full)); off++ {
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0xFF
		check(off, corrupt, "corrupt")
	}
}

func TestSnapshotTruncatesWALAndCompactsTombstones(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)
	idA, _ := r.Put(sch("a", "x"))
	idB, _ := r.Put(sch("b", "y"))
	r.Delete(idA)

	if err := r.Snapshot(snap, r.Seq()); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Errorf("WAL not truncated after snapshot: %v %v", fi, err)
	}
	if ch := r.ChangedSince(0); len(ch.Deleted) != 0 {
		t.Errorf("tombstones survived compaction: %v", ch.Deleted)
	}
	if r.Get(idB) == nil {
		t.Fatal("live entry lost")
	}
	r.Close()

	got, stats := recoverAt(t, snap, walPath)
	defer got.Close()
	if !stats.SnapshotLoaded || stats.Replayed != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if got.Get(idB) == nil || got.Get(idA) != nil || got.Len() != 1 {
		t.Errorf("post-snapshot recovery wrong: len=%d", got.Len())
	}
	if got.Seq() != 3 {
		t.Errorf("seq = %d, want 3", got.Seq())
	}
}

// A crash after Save (which persists the covered LSN) but before WAL
// truncation must not double-apply the still-present records.
func TestRecoverySkipsRecordsCoveredBySnapshot(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)
	idA, _ := r.Put(sch("a", "x"))
	r.Tag(idA, "t1")
	r.AddComment(idA, Comment{Author: "z", Text: "ok"})
	// Save persists the snapshot (including lsn) WITHOUT truncating the
	// WAL — exactly the state a crash mid-Snapshot leaves behind.
	if err := r.Save(snap); err != nil {
		t.Fatal(err)
	}
	idB, _ := r.Put(sch("b", "y"))
	want := dump(t, r)
	r.Close()

	got, stats := recoverAt(t, snap, walPath)
	defer got.Close()
	if stats.Skipped != 3 || stats.Replayed != 1 {
		t.Errorf("stats = %+v, want 3 skipped / 1 replayed", stats)
	}
	if d := dump(t, got); d != want {
		t.Errorf("state differs:\n got %s\nwant %s", d, want)
	}
	if e := got.Entry(idA); len(e.Comments) != 1 || len(e.Tags) != 1 {
		t.Errorf("double-applied metadata: %+v", e)
	}
	if got.Get(idB) == nil {
		t.Error("post-save record not replayed")
	}
}

func TestUsageCoalescingFlushesBeforeStrongMutations(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)
	id, _ := r.Put(sch("a", "x"))
	r.RecordImpressions(id)
	r.RecordImpressions(id)
	// The replace logs the merged entry (counters included); the pending
	// deltas must be flushed before it, not after, or replay would add
	// them twice.
	s2 := sch("a2", "x", "y")
	s2.ID = id
	if _, err := r.Put(s2); err != nil {
		t.Fatal(err)
	}
	r.Close()

	got, _ := recoverAt(t, snap, walPath)
	defer got.Close()
	if u := got.Usage(id); u.Impressions != 2 {
		t.Errorf("impressions = %d, want 2 (no double count)", u.Impressions)
	}
}

func TestPutReplacePreservesUsage(t *testing.T) {
	r := New()
	id, _ := r.Put(sch("orders", "sku"))
	r.RecordImpressions(id)
	r.RecordSelection(id)
	s2 := sch("orders-v2", "sku", "qty")
	s2.ID = id
	if _, err := r.Put(s2); err != nil {
		t.Fatal(err)
	}
	if u := r.Usage(id); u.Impressions != 1 || u.Selections != 1 {
		t.Errorf("usage zeroed on replace: %+v", u)
	}
}

// TestConcurrentPutDedupEqualFingerprints hammers the check-and-insert
// path with structurally identical schemas from many goroutines; exactly
// one insert must win (run with -race).
func TestConcurrentPutDedupEqualFingerprints(t *testing.T) {
	const workers = 32
	for round := 0; round < 20; round++ {
		r := New()
		var wg sync.WaitGroup
		ids := make([]string, workers)
		dups := make([]bool, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id, dup, err := r.PutDedup(sch("dup", "a", "b", "c"))
				if err != nil {
					t.Errorf("PutDedup: %v", err)
					return
				}
				ids[i] = id
				dups[i] = dup
			}(i)
		}
		wg.Wait()
		if r.Len() != 1 {
			t.Fatalf("round %d: %d schemas stored, want 1", round, r.Len())
		}
		inserts := 0
		for i := range ids {
			if ids[i] != ids[0] {
				t.Fatalf("round %d: divergent ids %q vs %q", round, ids[i], ids[0])
			}
			if !dups[i] {
				inserts++
			}
		}
		if inserts != 1 {
			t.Fatalf("round %d: %d inserts reported, want exactly 1", round, inserts)
		}
	}
}

// Durable PutDedup under concurrency: same invariant with the WAL
// attached, and recovery agrees with the live repository.
func TestConcurrentPutDedupDurable(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the goroutines collide on one fingerprint, half insert
			// distinct schemas.
			if i%2 == 0 {
				r.PutDedup(sch("same", "a", "b"))
			} else {
				r.PutDedup(sch(fmt.Sprintf("uniq%d", i), "a", fmt.Sprintf("f%d", i)))
			}
		}(i)
	}
	wg.Wait()
	want := dump(t, r)
	r.Close()
	got, _ := recoverAt(t, snap, walPath)
	defer got.Close()
	if d := dump(t, got); d != want {
		t.Errorf("recovered state differs:\n got %s\nwant %s", d, want)
	}
	if got.Len() != 9 { // 1 shared + 8 unique
		t.Errorf("Len = %d, want 9", got.Len())
	}
}
