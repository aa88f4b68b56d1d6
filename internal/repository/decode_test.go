package repository

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"schemr/internal/model"
	"schemr/internal/tenant"
	"schemr/internal/webtables"
)

// catalogue returns a repository of n schemas shaped like the corpora
// SchemaDB catalogues: mostly flat web tables, one in ten a multi-entity
// relational schema with foreign keys and one in twenty a hierarchical
// one, in seeded random order. A third are tagged and a fifth commented.
func catalogue(t testing.TB, seed int64, n int) *Repository {
	t.Helper()
	ss := append(webtables.GenerateRelational(seed, n/10), webtables.GenerateHierarchical(seed+1, n/20)...)
	gen := webtables.NewGenerator(webtables.Options{Seed: seed + 2, NumTables: 8 * n})
	pipe := webtables.NewPipeline()
	for len(ss) < n {
		tb, ok := gen.Next()
		if !ok {
			t.Fatal("the table generator ran dry")
		}
		if len(tb.Columns) > 3 {
			ss = append(ss, pipe.ToSchema(tb))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
	r := New()
	at := time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC)
	for i, s := range ss {
		id, err := r.Put(s)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			r.Tag(id, "catalogued", fmt.Sprint("batch-", i%7))
		}
		if i%5 == 0 {
			c := Comment{Author: "curator", Text: fmt.Sprint("reviewed ", i), Rating: 1 + i%5, At: at.Add(time.Duration(i) * time.Minute)}
			if err := r.AddComment(id, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

// retainedPerPut is the heap a recovered repository of catalogue(1, 3000)
// holds per schema, measured at the commit before puts were decoded
// through a transient graph; recovery may not keep more.
const retainedPerPut = 924

// TestRecoverAllocsPerPut pins the work of the boot decode stage: a
// recovery allocates at most 8 objects per put (31.7 when each put's
// graph was built on the heap), and what it keeps stays within 5 % of
// retainedPerPut.
func TestRecoverAllocsPerPut(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "repository.json")
	live := catalogue(t, 1, 3000)
	if err := live.Save(snap); err != nil {
		t.Fatal(err)
	}
	puts := live.Len()
	live = nil

	var before, recovered, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, _, err := Recover(snap, filepath.Join(dir, "repository.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&recovered)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	if r.Len() != puts {
		t.Fatalf("recovered %d schemas, want %d", r.Len(), puts)
	}
	r.Close()
	allocs := float64(recovered.Mallocs-before.Mallocs) / float64(puts)
	retained := float64(int64(kept.HeapAlloc)-int64(before.HeapAlloc)) / float64(puts)
	t.Logf("%d puts: %.1f allocations, %.0f B allocated, %.0f B retained per put; %d GCs",
		puts, allocs, float64(recovered.TotalAlloc-before.TotalAlloc)/float64(puts), retained, recovered.NumGC-before.NumGC)
	if allocs > 8 {
		t.Errorf("recovery allocates %.1f objects per put; want at most 8", allocs)
	}
	if retained > 1.05*retainedPerPut {
		t.Errorf("a recovered repository holds %.0f B per put; want at most %.0f (5 %% over %d)", retained, 1.05*retainedPerPut, retainedPerPut)
	}
}

// BenchmarkDecodeStage is a decode worker's CPU per put frame of a
// catalogue snapshot: decode, validation, fingerprint and header.
func BenchmarkDecodeStage(b *testing.B) {
	var buf bytes.Buffer
	if err := catalogue(b, 1, 2000).writeSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	ps := frames(b, buf.Bytes())
	ps = ps[:len(ps)-1] // the puts
	texts := make([]string, len(ps))
	for i, p := range ps {
		texts[i] = string(p)
	}
	var pd putDecoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := decoded{payload: ps[i%len(ps)]}
		if d.decode(&pd, texts[i%len(ps)]); d.err != nil {
			b.Fatal(d.err)
		}
	}
}

// TestReplayRecyclesBatches loads a snapshot and replays a WAL of more
// frames than the decode stage's batch window at 1, 2 and 4 Ps, so every
// batch, payload buffer and decoder scratch is reused while the entries
// it filled are kept. Each entry's ID, header, dedupe key and tags must
// equal those derived from a json.Unmarshal of its put frame.
func TestReplayRecyclesBatches(t *testing.T) {
	const procs = 4
	n := 3*procs*replayBatch + 100
	live := catalogue(t, 2, n)
	for _, s := range webtables.GenerateRelational(9, 100) {
		if _, err := live.PutTenant("acme", s); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := live.writeSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	type want struct {
		id, print string
		head      Header
		tags      []string
	}
	var wants []want
	for _, p := range frames(t, snap.Bytes()) {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op != opPut {
			continue
		}
		var s model.Schema
		if err := json.Unmarshal(rec.Entry.Schema, &s); err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{s.ID, printKey(tenant.Owner(s.ID), s.Fingerprint()), headerOf(&s, rec.Entry.Seq), rec.Entry.Tags})
	}
	if len(wants) < n {
		t.Fatalf("%d puts, want at least %d", len(wants), n)
	}
	check := func(label string, r *Repository) {
		t.Helper()
		if len(r.order) != len(wants) {
			t.Fatalf("%s: %d entries, want %d", label, len(r.order), len(wants))
		}
		for i, w := range wants {
			e := r.entries[r.order[i]]
			if r.order[i] != w.id || e.head != w.head || e.print != w.print || !reflect.DeepEqual(e.Tags, w.tags) {
				t.Fatalf("%s: entry %d is %q %+v %q %q; want %q %+v %q %q",
					label, i, r.order[i], e.head, e.print, e.Tags, w.id, w.head, w.print, w.tags)
			}
		}
	}
	for _, p := range []int{1, 2, procs} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			r, err := readSnapshot(bufio.NewReader(bytes.NewReader(snap.Bytes())), int64(snap.Len()))
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("snapshot at %d Ps", p), r)

			// The same puts from a WAL.
			var log bytes.Buffer
			for i, id := range r.order {
				p, err := json.Marshal(&walRecord{Op: opPut, Lsn: uint64(i + 1), Entry: r.entries[id], Tenant: tenant.Owner(id)})
				if err != nil {
					t.Fatal(err)
				}
				if err := writeFrame(&log, append(p, '\n')); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "repo.wal"), log.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			replayed, _ := recoverAt(t, filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal"))
			defer replayed.Close()
			check(fmt.Sprintf("WAL at %d Ps", p), replayed)
		}()
	}
}
