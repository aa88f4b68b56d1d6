package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"schemr/internal/index"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
)

// bulkSchema returns a small distinct schema for segment-churn tests.
func bulkSchema(i int) *model.Schema {
	return &model.Schema{
		Name: fmt.Sprintf("inventory %d", i),
		Entities: []*model.Entity{{
			Name: fmt.Sprintf("warehouse%d", i),
			Attributes: []*model.Attribute{
				{Name: "sku"}, {Name: "quantity"}, {Name: fmt.Sprintf("bin%d", i)},
			},
		}},
	}
}

// TestSaveIndexDoesNotCompact: a checkpoint must serialize the current
// snapshot, not force-merge every segment first. The old SaveIndex called
// Compact(), which collapsed the segment set to one on every checkpoint —
// stalling writers and defeating the merge policy's amortization.
func TestSaveIndexDoesNotCompact(t *testing.T) {
	repo := repository.New()
	// Tiny head, and fewer segments than the default merge fan-in:
	// segments accumulate and stay.
	e := NewEngine(repo, Options{FlushDocs: 4})
	for i := 0; i < 24; i++ {
		if _, err := repo.Put(bulkSchema(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	before := e.idx.NumSegments()
	if before < 2 {
		t.Fatalf("precondition: want >=2 segments, got %d", before)
	}

	path := filepath.Join(t.TempDir(), "engine.idx")
	if err := e.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	if after := e.idx.NumSegments(); after != before {
		t.Fatalf("SaveIndex changed segment count %d -> %d; checkpoints must not compact", before, after)
	}

	// And the saved artifact still round-trips.
	e2 := NewEngine(repo, Options{FlushDocs: 4})
	if err := e2.LoadIndex(path); err != nil {
		t.Fatal(err)
	}
	if e2.IndexedDocs() != repo.Len() {
		t.Fatalf("loaded %d docs, want %d", e2.IndexedDocs(), repo.Len())
	}
}

// TestSaveIndexUnderConcurrentWrites: checkpoints race live imports. The
// cursor and index state must be captured atomically — every doc the saved
// cursor claims must be in the saved index, so a load + incremental sync
// never misses a schema.
func TestSaveIndexUnderConcurrentWrites(t *testing.T) {
	repo := repository.New()
	e := NewEngine(repo, Options{FlushDocs: 4})
	path := filepath.Join(t.TempDir(), "engine.idx")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: keeps importing and syncing during the saves
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := repo.Put(bulkSchema(i)); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := e.Sync(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if err := e.SaveIndex(path); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Load the final checkpoint and catch up from its cursor: the result
	// must cover the whole repository with no gaps.
	e2 := NewEngine(repo, Options{FlushDocs: 4})
	if err := e2.LoadIndex(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e2.Sync(); err != nil {
		t.Fatal(err)
	}
	if e2.IndexedDocs() != repo.Len() {
		t.Fatalf("after load+sync: %d docs indexed, repo holds %d", e2.IndexedDocs(), repo.Len())
	}
}

// TestSaveIndexBytesUnchanged pins the envelope bytes SaveIndex writes for
// a single-tenant (V1) and a two-tenant (V3) engine, so that no change to
// schemas.idx goes unnoticed: it sets the data directory's size and the
// index read at boot. Replicas never ship schemas.idx, and a binary that
// cannot read one falls back to Reindex, so a deliberate format change
// re-records the digests. They were last recorded when postings stopped
// carrying token positions (index format v4). An index stream's gob
// encoding walks Go maps, so the order of its records differs from run to
// run; the digest therefore covers each stream's bytes sorted, which keeps
// every byte and its count and drops only that order. Magic, cursor,
// tenant names, stream counts and length prefixes are digested as written.
func TestSaveIndexBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tenants []string
		digest  string
	}{
		{"v1", nil, "65badbe7b0f003876aa95e5f3898250f7d76c6cb0c2cee028096f873691962bc"},
		{"v3", []string{"acme"}, "948bbd33a60720e515b1048fa7939869508ae23092cd4629e6d8597ddd7e692e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repo, _ := seedRepo(t)
			for _, tn := range tc.tenants {
				if _, err := repo.PutTenant(tn, tenantSchema("patients", "patient", "height", "gender")); err != nil {
					t.Fatal(err)
				}
			}
			e := NewEngine(repo, Options{})
			if err := e.Reindex(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "engine.idx")
			if err := e.SaveIndex(path); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := canonicalEnvelope(b)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(canon)); got != tc.digest {
				t.Fatalf("SaveIndex bytes changed: digest %s, want %s (%d bytes)", got, tc.digest, len(b))
			}
		})
	}
}

// canonicalEnvelope parses a V1 or V3 index envelope on its own (not with
// the engine's reader) and returns it with every index stream's bytes
// sorted.
func canonicalEnvelope(b []byte) ([]byte, error) {
	le := binary.LittleEndian
	sorted := func(s []byte) []byte {
		s = bytes.Clone(s)
		slices.Sort(s)
		return s
	}
	const head = len(indexEnvelopeMagic) + 8 // magic + cursor
	if len(b) < head {
		return nil, fmt.Errorf("short envelope: %d bytes", len(b))
	}
	out := bytes.Clone(b[:head])
	switch string(b[:len(indexEnvelopeMagic)]) {
	case indexEnvelopeMagic:
		return append(out, sorted(b[head:])...), nil
	case indexEnvelopeMagicV3:
	default:
		return nil, fmt.Errorf("unexpected magic %q", b[:len(indexEnvelopeMagic)])
	}
	rest := b[head:]
	take := func(n int) ([]byte, error) {
		if len(rest) < n {
			return nil, fmt.Errorf("envelope cut: need %d bytes, have %d", n, len(rest))
		}
		p := rest[:n]
		rest = rest[n:]
		out = append(out, p...)
		return p, nil
	}
	p, err := take(4)
	if err != nil {
		return nil, err
	}
	for tenants := le.Uint32(p); tenants > 0; tenants-- {
		if p, err = take(4); err != nil { // name length
			return nil, err
		}
		if _, err = take(int(le.Uint32(p))); err != nil { // name
			return nil, err
		}
		if _, err = take(4); err != nil { // stream count
			return nil, err
		}
		if p, err = take(8); err != nil { // stream length
			return nil, err
		}
		n := int(le.Uint64(p))
		if len(rest) < n {
			return nil, fmt.Errorf("stream cut: need %d bytes, have %d", n, len(rest))
		}
		out = append(out, sorted(rest[:n])...)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return out, nil
}

// TestOpenRebuildsOldIndexFormats: an index file whose stream is in a
// format this build no longer reads makes Open report Boot.IndexErr and
// rebuild, and the rebuilt engine serves the same pages as one booted from
// a clean index file. testdata/schemas_v3.idx is the schemas.idx an engine
// over seedRepo saved in index format v3, whose postings still carried
// token positions; the index package's v2 and uncompressed-v3 fixtures are
// wrapped in a V1 envelope here. Every one of their index streams fails
// index.ReadFrom's magic check.
func TestOpenRebuildsOldIndexFormats(t *testing.T) {
	repo, _ := seedRepo(t)
	recoverRepo := func() (*repository.Repository, error) { return repo, nil }
	pages := func(e *Engine) string {
		var b strings.Builder
		for _, in := range digestQueries {
			q, err := query.Parse(in)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := e.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%+v\n", rs)
		}
		return b.String()
	}

	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.idx")
	e := NewEngine(repo, Options{})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveIndex(clean); err != nil {
		t.Fatal(err)
	}
	ce, boot, err := Open(clean, Options{}, recoverRepo)
	if err != nil || boot.IndexErr != nil {
		t.Fatalf("clean boot: %v, index error %v", err, boot.IndexErr)
	}
	want := pages(ce)

	paths := []string{filepath.Join("testdata", "schemas_v3.idx")}
	for _, name := range []string{"v2.idx", "v3_raw.idx"} {
		stream, err := os.ReadFile(filepath.Join("..", "index", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		env := binary.LittleEndian.AppendUint64([]byte(indexEnvelopeMagic), e.Cursor())
		if err := os.WriteFile(path, append(env, stream...), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		head := len(indexEnvelopeMagic) + 8 // magic + cursor
		if len(b) < head || string(b[:len(indexEnvelopeMagic)]) != indexEnvelopeMagic {
			t.Fatalf("%s is not a single-tenant index envelope", name)
		}
		if _, err := index.New().ReadFrom(bytes.NewReader(b[head:])); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s: index.ReadFrom error %v, want bad magic", name, err)
		}
		oe, boot, err := Open(path, Options{}, recoverRepo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if boot.IndexErr == nil || !strings.Contains(boot.IndexErr.Error(), "bad magic") {
			t.Errorf("%s: boot index error %v; want the file rejected for its magic and rebuilt", name, boot.IndexErr)
		}
		if got := pages(oe); got != want {
			t.Errorf("%s: rebuilt engine serves different pages:\n got %s\nwant %s", name, got, want)
		}
	}
}
