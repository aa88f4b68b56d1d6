package repository

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"schemr/internal/model"
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
	if ok, err := r.Tag(idA, "health", "demo"); !ok || err != nil {
		t.Fatalf("tag: %v, %v", ok, err)
	}
	if err := r.AddComment(idA, Comment{Author: "kc", Text: "nice", Rating: 4}); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Delete(idB); !ok || err != nil {
		t.Fatalf("delete: %v, %v", ok, err)
	}
	if ok, err := r.RecordSelection(idA); !ok || err != nil {
		t.Fatalf("select: %v, %v", ok, err)
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
	if u := got.Usage(idA); u.Selections != 1 {
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
	r.RecordSelection(idA)
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

// TestSelectReplaceRecoverCountsOnce: a replace logs the merged entry,
// counter included, after the selection's own record; recovery replays
// both and must count the selection once.
func TestSelectReplaceRecoverCountsOnce(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)
	id, _ := r.Put(sch("a", "x"))
	if ok, err := r.RecordSelection(id); !ok || err != nil {
		t.Fatalf("select: %v, %v", ok, err)
	}
	s2 := sch("a2", "x", "y")
	s2.ID = id
	if _, err := r.Put(s2); err != nil {
		t.Fatal(err)
	}
	r.Close()

	got, _ := recoverAt(t, snap, walPath)
	defer got.Close()
	if u := got.Usage(id); u.Selections != 1 {
		t.Errorf("selections = %d, want 1 (no double count)", u.Selections)
	}
}

func TestPutReplacePreservesUsage(t *testing.T) {
	r := New()
	id, _ := r.Put(sch("orders", "sku"))
	r.RecordSelection(id)
	s2 := sch("orders-v2", "sku", "qty")
	s2.ID = id
	if _, err := r.Put(s2); err != nil {
		t.Fatal(err)
	}
	if u := r.Usage(id); u.Selections != 1 {
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

// TestMutationThatCannotBeLoggedFails closes the WAL's file under the
// repository, so every append fails: Delete, Tag and RecordSelection must
// return the error and apply nothing. The schema is still served, and a
// repository recovered from the same files still holds it.
func TestMutationThatCannotBeLoggedFails(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)
	id, err := r.Put(sch("clinic", "patient", "height"))
	if err != nil {
		t.Fatal(err)
	}
	want := dump(t, r)
	r.wal.f.Close()
	if ok, err := r.Delete(id); ok || !errors.Is(err, ErrUnavailable) {
		t.Errorf("Delete = %v, %v; want false and ErrUnavailable", ok, err)
	}
	if ok, err := r.Tag(id, "health"); ok || !errors.Is(err, ErrUnavailable) {
		t.Errorf("Tag = %v, %v; want false and ErrUnavailable", ok, err)
	}
	if ok, err := r.RecordSelection(id); ok || !errors.Is(err, ErrUnavailable) {
		t.Errorf("RecordSelection = %v, %v; want false and ErrUnavailable", ok, err)
	}
	if _, err := r.Put(sch("lab", "sample", "volume")); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Put = %v; want ErrUnavailable", err)
	}
	if _, err := r.Put(&model.Schema{}); err == nil || errors.Is(err, ErrUnavailable) {
		t.Errorf("invalid Put = %v; want a validation error", err)
	}
	if r.Get(id) == nil {
		t.Fatal("a delete that was not logged removed the schema")
	}
	if d := dump(t, r); d != want {
		t.Errorf("failed mutations changed the live state:\n got %s\nwant %s", d, want)
	}

	got, _ := recoverAt(t, snap, walPath)
	defer got.Close()
	if got.Get(id) == nil {
		t.Fatal("recovered repository lost the schema")
	}
	if d := dump(t, got); d != want {
		t.Errorf("recovered state:\n got %s\nwant %s", d, want)
	}
}

// TestOldDataDirKeepsSelections recovers testdata/usage-v1, a data dir
// written while searches counted impressions and usage deltas were
// coalesced: its snapshot's entries carry impressions and selections, and
// its WAL tail holds batched usage records, a replace and a delete each
// logged while deltas were pending, a tag and a final flush. Recovery
// must give the selections that writer counted, and a snapshot of the
// recovered repository holds no impressions. The put decoder declines
// the old entries that carry impressions, so encoding/json decodes them;
// the rewritten snapshot's puts take the decoder's path again.
func TestOldDataDirKeepsSelections(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repository.json"), filepath.Join(dir, "repository.wal")
	copyFile(t, filepath.Join("testdata", "usage-v1", "repository.json"), snap)
	copyFile(t, filepath.Join("testdata", "usage-v1", "repository.wal"), walPath)
	oldSnap, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	r, stats := recoverAt(t, snap, walPath)
	defer r.Close()
	if !stats.SnapshotLoaded || stats.Replayed != 7 || stats.TornTail {
		t.Fatalf("stats = %+v, want the snapshot and 7 replayed records", stats)
	}
	want := map[string]int{"s000001": 3, "s000002": 3, "s000004": 2}
	check := func(what string, r *Repository) {
		t.Helper()
		if ids := r.IDs(); len(ids) != len(want) {
			t.Errorf("%s: ids %v, want %d", what, ids, len(want))
		}
		for id, n := range want {
			if u := r.Usage(id); u.Selections != n {
				t.Errorf("%s: %s selections = %d, want %d", what, id, u.Selections, n)
			}
		}
		if r.Get("s000003") != nil {
			t.Errorf("%s: deleted s000003 is served", what)
		}
		if s := r.Get("s000001"); s == nil || s.Name != "clinic-v2" {
			t.Errorf("%s: s000001 = %v, want the replacement", what, s)
		}
		if e := r.Entry("s000002"); e == nil || len(e.Tags) != 1 {
			t.Errorf("%s: s000002 lost its tag", what)
		}
	}
	check("recovered", r)

	if err := r.Snapshot(snap, 0); err != nil {
		t.Fatal(err)
	}
	newSnap, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(newSnap, []byte("impressions")) {
		t.Errorf("rewritten snapshot carries impressions:\n%s", newSnap)
	}
	declines := func(data []byte) (puts, declined int) {
		for _, p := range frames(t, data) {
			var rec walRecord
			if !bytes.HasPrefix(p, []byte(`{"op":"put"`)) {
				continue
			}
			puts++
			if !new(putDecoder).decode(p, string(p), &rec) {
				declined++
			}
		}
		return puts, declined
	}
	if puts, declined := declines(oldSnap); declined != 4 || puts != 4 {
		t.Errorf("old snapshot: decoder declined %d of %d puts, want all 4", declined, puts)
	}
	if puts, declined := declines(newSnap); declined != 0 || puts != 3 {
		t.Errorf("rewritten snapshot: decoder declined %d of %d puts, want 0 of 3", declined, puts)
	}
	again, _ := recoverAt(t, snap, walPath)
	defer again.Close()
	check("rewritten", again)
}
