package schemr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

const clinicDDL = `
CREATE TABLE patient (
  id INT PRIMARY KEY,
  height FLOAT,
  gender VARCHAR(8),
  dob DATE
);
CREATE TABLE "case" (
  id INT PRIMARY KEY,
  patient INT REFERENCES patient(id),
  diagnosis VARCHAR(64)
);`

func TestFacadeLifecycle(t *testing.T) {
	sys := New()
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ImportXSD("po", `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="order"><xs:complexType><xs:sequence>
	    <xs:element name="sku" type="xs:string"/>
	    <xs:element name="total" type="xs:decimal"/>
	  </xs:sequence></xs:complexType></xs:element>
	</xs:schema>`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}

	q, err := ParseQuery(QueryInput{Keywords: "patient height gender diagnosis"})
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := sys.SearchWithStats(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || results[0].ID != id {
		t.Fatalf("results = %+v", results)
	}
	if stats.CorpusSize != 2 {
		t.Errorf("stats = %+v", stats)
	}

	// Round-trip through disk.
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	sys2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	results2, err := sys2.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results2) == 0 || results2[0].ID != id {
		t.Fatalf("after reload: %+v", results2)
	}
	if sys2.Get(id) == nil {
		t.Error("Get after reload failed")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestFacadeVisualize(t *testing.T) {
	sys := New()
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	sys.Refresh()
	q, _ := ParseQuery(QueryInput{Keywords: "height diagnosis"})
	results, err := sys.Search(q, 1)
	if err != nil || len(results) != 1 {
		t.Fatalf("results=%v err=%v", results, err)
	}
	viz, err := Visualize(sys.Get(id), VizOptions{
		Layout: "radial",
		Scores: ResultScores(results[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(viz.GraphML), "graphml") || !strings.Contains(viz.SVG, "<svg") {
		t.Error("visualization outputs malformed")
	}
	if !strings.Contains(string(viz.GraphML), "score") {
		t.Error("scores not encoded in graphml")
	}
	if _, err := Visualize(sys.Get(id), VizOptions{Layout: "pie"}); err == nil {
		t.Error("bad layout accepted")
	}
}

func TestFacadeQueryByExampleAndPrint(t *testing.T) {
	frag, err := ParseDDL("frag", "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));")
	if err != nil {
		t.Fatal(err)
	}
	q := QueryFromSchema(frag)
	if q.IsEmpty() {
		t.Fatal("empty query from schema")
	}
	printed := PrintDDL(frag)
	if !strings.Contains(printed, "CREATE TABLE patient") {
		t.Errorf("printed = %s", printed)
	}
	if _, err := ParseXSD("bad", "not xml"); err == nil {
		t.Error("bad xsd accepted")
	}
}

func TestFacadeServerAndCorpus(t *testing.T) {
	sys := New()
	stats, err := sys.GenerateCorpus(CorpusOptions{Seed: 5, NumTables: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retained == 0 || sys.Repo.Len() == 0 {
		t.Fatalf("corpus stats = %v, repo = %d", stats, sys.Repo.Len())
	}
	if sys.Repo.Len() > stats.Retained {
		t.Errorf("repo %d > retained %d", sys.Repo.Len(), stats.Retained)
	}
	ts := httptest.NewServer(sys.NewServer())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("stats status %d", resp.StatusCode)
	}
}

func TestFacadeCodebook(t *testing.T) {
	sys := New()
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	// A schema that shares no vocabulary with "height" but carries the
	// length concept.
	otherID, err := sys.ImportDDL("aviary", `CREATE TABLE bird (tag VARCHAR(10), wingspan FLOAT, diet VARCHAR(20), sightings INT);`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Refresh()

	cs := Concepts(sys.Get(id))
	if got := cs["patient.height"]; len(got) != 1 || got[0] != "length" {
		t.Errorf("height concepts = %v", got)
	}
	if _, ok := cs["patient.gender"]; ok {
		t.Error("gender should carry no concept")
	}

	profile := sys.ConceptProfile()
	if len(profile) == 0 {
		t.Fatal("empty profile")
	}

	if err := sys.ConfigureEnsemble(MatcherConfig{Concept: true}); err != nil {
		t.Fatal(err)
	}
	// With the concept matcher on, a wingspan fragment finds the aviary
	// schema via candidate terms, with the concept matcher contributing.
	q, _ := ParseQuery(QueryInput{Keywords: "wingspan diet"})
	results, err := sys.Search(q, 5)
	if err != nil || len(results) == 0 || results[0].ID != otherID {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

func TestFacadeConfigureEnsemble(t *testing.T) {
	sys := New()
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	sys.Refresh()
	if err := sys.ConfigureEnsemble(MatcherConfig{Exact: true, Type: true, Concept: true, Synonym: true}); err != nil {
		t.Fatal(err)
	}
	names := sys.Engine.Ensemble().MatcherNames()
	if len(names) != 6 {
		t.Fatalf("matchers = %v", names)
	}
	// With only the thesaurus enabled (exact matching would dilute a pure
	// synonym pair below the match threshold), "sex" connects to the
	// gender column.
	if err := sys.ConfigureEnsemble(MatcherConfig{Synonym: true}); err != nil {
		t.Fatal(err)
	}
	q, _ := ParseQuery(QueryInput{Keywords: "patient sex"})
	results, err := sys.Search(q, 3)
	if err != nil || len(results) == 0 || results[0].ID != id {
		t.Fatalf("results=%v err=%v", results, err)
	}
	found := false
	for _, el := range results[0].Matched {
		if el.Ref.String() == "patient.gender" {
			found = true
		}
	}
	if !found {
		t.Errorf("sex did not match gender: %+v", results[0].Matched)
	}
}

func TestFacadeSummarize(t *testing.T) {
	sys := New()
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(sys.Get(id), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NumEntities() != 1 {
		t.Errorf("summary entities = %d", sum.NumEntities())
	}
	if _, err := Summarize(sys.Get(id), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestFacadeLearnWeights(t *testing.T) {
	sys := New()
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ImportDDL("retail", `CREATE TABLE orders (sku INT, price FLOAT, quantity INT, customer VARCHAR(40));`); err != nil {
		t.Fatal(err)
	}
	// A distractor that shares query terms, so negative sampling has a
	// candidate to draw from.
	if _, err := sys.ImportDDL("hospital", `CREATE TABLE admission (patient INT, ward VARCHAR(20), gender VARCHAR(8));`); err != nil {
		t.Fatal(err)
	}
	sys.Refresh()
	q, _ := ParseQuery(QueryInput{Keywords: "patient height gender"})
	if err := sys.LearnWeights([]History{{Query: q, Relevant: id}}); err != nil {
		t.Fatal(err)
	}
	results, err := sys.Search(q, 5)
	if err != nil || len(results) == 0 || results[0].ID != id {
		t.Errorf("post-learning search: %v %v", results, err)
	}
}

func TestOpenDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	sys, stats, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLoaded || stats.Replayed != 0 {
		t.Errorf("fresh dir recovery stats = %+v", stats)
	}
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sys.Repo.Tag(id, "health"); !ok || err != nil {
		t.Fatalf("tag: %v, %v", ok, err)
	}
	// Crash simulation: no Save, no Close. The acknowledged import and tag
	// exist only in the WAL.

	sys2, stats2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.SnapshotLoaded || stats2.Replayed < 2 || stats2.TornTail {
		t.Errorf("post-crash recovery stats = %+v", stats2)
	}
	e := sys2.Repo.Entry(id)
	if e == nil || e.Schema == nil {
		t.Fatal("acknowledged import lost across crash")
	}
	if len(e.Tags) != 1 || e.Tags[0] != "health" {
		t.Errorf("tags after recovery: %v", e.Tags)
	}
	q, _ := ParseQuery(QueryInput{Keywords: "patient height diagnosis"})
	results, err := sys2.Search(q, 5)
	if err != nil || len(results) == 0 || results[0].ID != id {
		t.Fatalf("search after recovery: %v %v", results, err)
	}

	// Clean checkpoint: Save snapshots repository + index and truncates the
	// WAL; the next boot loads the snapshot and replays nothing.
	if err := sys2.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	sys3, stats3, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys3.Close()
	if !stats3.SnapshotLoaded || stats3.Replayed != 0 || stats3.Skipped != 0 {
		t.Errorf("post-checkpoint recovery stats = %+v", stats3)
	}
	if sys3.Get(id) == nil {
		t.Error("schema lost after checkpointed restart")
	}
}

// copyDir copies a flat data directory.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// rankings renders each query's ranking (IDs and scores).
func rankings(t *testing.T, sys *System, queries []string) string {
	t.Helper()
	var b strings.Builder
	for _, kw := range queries {
		q, err := ParseQuery(QueryInput{Keywords: kw})
		if err != nil {
			t.Fatal(err)
		}
		results, err := sys.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			fmt.Fprintf(&b, "%s %s %.6f\n", kw, r.ID, r.Score)
		}
	}
	return b.String()
}

// The index is read beside repository recovery and installed after it. A
// missing or corrupt schemas.idx, or one a build with in-process shards
// wrote for more than one shard, makes boot rebuild the index, and the
// rebuilt system ranks exactly like a clean boot.
func TestOpenDurableIndexFallback(t *testing.T) {
	base := t.TempDir()
	sys, _, err := OpenDurable(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GenerateCorpus(CorpusOptions{Seed: 7, NumTables: 3000}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(base); err != nil {
		t.Fatal(err)
	}
	// Changes after the checkpoint live only in the WAL; the loaded index
	// must catch up on them.
	id, err := sys.ImportDDL("clinic", clinicDDL)
	if err != nil {
		t.Fatal(err)
	}
	sys.Repo.Delete(sys.Repo.IDs()[0])
	sys.Close()

	queries := []string{"patient height diagnosis", "price", "name city country", "date"}
	clean, stats, err := OpenDurable(copyDir(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Boot.IndexErr != nil || stats.Boot.Repository <= 0 || stats.Boot.Index <= 0 || stats.Boot.Catchup <= 0 {
		t.Fatalf("clean boot: %+v", stats.Boot)
	}
	want := rankings(t, clean, queries)
	if !strings.Contains(want, id) {
		t.Fatalf("clean boot does not rank the schema imported after the checkpoint:\n%s", want)
	}
	clean.Close()

	// sharded rewrites the saved single-tenant (V1) file the way a sharded
	// build laid out two shards: the V1 header is magic + cursor, and the
	// index stream follows it.
	sharded := func(layout func(cursor, stream []byte) []byte) func(string) {
		return func(dir string) {
			path := filepath.Join(dir, indexFile)
			b, err := os.ReadFile(path)
			if err != nil || !bytes.HasPrefix(b, []byte("SCHEMR-ENGINE-IDX-1\n")) {
				t.Fatalf("saved index is not V1: %v", err)
			}
			if err := os.WriteFile(path, layout(b[20:28], b[28:]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	le := binary.LittleEndian
	shards := func(out, stream []byte) []byte {
		for i := 0; i < 2; i++ {
			out = le.AppendUint64(out, uint64(len(stream)))
			out = append(out, stream...)
		}
		return out
	}
	// v3Head is a V3 envelope up to the default tenant's shard count, 2.
	v3Head := func(cursor []byte) []byte {
		out := append([]byte("SCHEMR-ENGINE-IDX-3\n"), cursor...)
		out = le.AppendUint32(out, 1) // tenants
		out = le.AppendUint32(out, 0) // name length: the default tenant
		return le.AppendUint32(out, 2)
	}
	for _, tc := range []struct {
		name   string
		damage func(dir string)
		why    string // in Boot.IndexErr
	}{
		{"missing", func(dir string) { os.Remove(filepath.Join(dir, indexFile)) }, "no such file"},
		{"corrupt", func(dir string) {
			path := filepath.Join(dir, indexFile)
			b, _ := os.ReadFile(path)
			os.WriteFile(path, b[:len(b)/2], 0o644)
		}, ""},
		// V2: magic, cursor, shard count, length-prefixed shard streams.
		{"v2 envelope", sharded(func(cursor, stream []byte) []byte {
			out := append([]byte("SCHEMR-ENGINE-IDX-2\n"), cursor...)
			return shards(le.AppendUint32(out, 2), stream)
		}), "bad magic"},
		// V3: magic, cursor, tenant count, then per tenant its name, its
		// shard count and length-prefixed shard streams.
		{"v3 with two shards", sharded(func(cursor, stream []byte) []byte {
			return shards(v3Head(cursor), stream)
		}), "2 index streams"},
		// The reader must refuse the count before it reads a stream: cut
		// right after it, any read would fail with EOF instead.
		{"v3 with two shards, cut after the count", sharded(func(cursor, _ []byte) []byte {
			return v3Head(cursor)
		}), "2 index streams"},
	} {
		dir := copyDir(t, base)
		tc.damage(dir)
		sys, stats, err := OpenDurable(dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.Boot.IndexErr == nil || !strings.Contains(stats.Boot.IndexErr.Error(), tc.why) {
			t.Errorf("%s: boot reports index error %v, want one mentioning %q", tc.name, stats.Boot.IndexErr, tc.why)
		}
		if got := rankings(t, sys, queries); got != want {
			t.Errorf("%s: rebuilt index ranks differently:\n got %s\nwant %s", tc.name, got, want)
		}
		sys.Close()
	}
}

// openIndexFiles counts this process's open descriptors on path (Linux
// only; -1 elsewhere).
func openIndexFiles(path string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}

// A failed recovery is returned as is, and the index read that ran
// beside it leaves no goroutine and no open file behind.
func TestOpenDurableRecoverFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	sys, _, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ImportDDL("clinic", clinicDDL); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	snap := filepath.Join(dir, repoFile)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-5] ^= 0xff // inside the last frame: a CRC mismatch
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	if _, _, err := OpenDurable(dir); err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("open with a damaged snapshot: err = %v, want the recovery error", err)
	}
	if n := openIndexFiles(filepath.Join(dir, indexFile)); n > 0 {
		t.Fatalf("%d descriptors still open on the index", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed open, %d before", n, before)
	}
}
