package repository

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"schemr/internal/model"
)

func sch(name string, attrs ...string) *model.Schema {
	e := &model.Entity{Name: name}
	for _, a := range attrs {
		e.Attributes = append(e.Attributes, &model.Attribute{Name: a})
	}
	return &model.Schema{Name: name, Entities: []*model.Entity{e}}
}

func TestPutGetDelete(t *testing.T) {
	r := New()
	id, err := r.Put(sch("patients", "id", "height"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("no id assigned")
	}
	if got := r.Get(id); got == nil || got.Name != "patients" {
		t.Fatalf("Get = %v", got)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if ok, err := r.Delete(id); !ok || err != nil {
		t.Errorf("delete: %v, %v", ok, err)
	}
	if ok, err := r.Delete(id); ok || err != nil {
		t.Errorf("double delete: %v, %v; want false, nil", ok, err)
	}
	if r.Get(id) != nil || r.Len() != 0 {
		t.Error("schema survived delete")
	}
}

func TestPutValidates(t *testing.T) {
	r := New()
	if _, err := r.Put(nil); err == nil {
		t.Error("nil schema accepted")
	}
	bad := sch("x", "a")
	bad.Entities[0].Name = ""
	if _, err := r.Put(bad); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestPutReplaceKeepsMetadata(t *testing.T) {
	r := New()
	id, _ := r.Put(sch("orders", "sku"))
	r.Tag(id, "retail")
	r.AddComment(id, Comment{Author: "kc", Text: "nice", Rating: 4})

	s2 := sch("orders-v2", "sku", "qty")
	s2.ID = id
	if _, err := r.Put(s2); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("replace grew the repo: %d", r.Len())
	}
	if got := r.Get(id); got.Name != "orders-v2" {
		t.Errorf("Get = %v", got)
	}
	e := r.Entry(id)
	if len(e.Tags) != 1 || len(e.Comments) != 1 {
		t.Errorf("metadata lost on replace: %+v", e)
	}
}

func TestIDsOrderAndAll(t *testing.T) {
	r := New()
	var want []string
	for i := 0; i < 5; i++ {
		id, _ := r.Put(sch(fmt.Sprintf("s%d", i), "a"))
		want = append(want, id)
	}
	if got := r.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
	all := r.All()
	for i, s := range all {
		if s.ID != want[i] {
			t.Errorf("All()[%d] = %s", i, s.ID)
		}
	}
	// Delete from the middle keeps order of the rest.
	r.Delete(want[2])
	got := r.IDs()
	wantAfter := append(append([]string{}, want[:2]...), want[3:]...)
	if !reflect.DeepEqual(got, wantAfter) {
		t.Errorf("IDs after delete = %v, want %v", got, wantAfter)
	}
}

func TestPutDedup(t *testing.T) {
	r := New()
	a := sch("clinic", "patient", "height")
	id1, dup, err := r.PutDedup(a)
	if err != nil || dup {
		t.Fatalf("first put: %v %v", dup, err)
	}
	// Structurally identical, different name metadata is still the same
	// fingerprint (name is not part of the structure).
	b := sch("clinic", "patient", "height")
	b.Description = "different description"
	id2, dup, err := r.PutDedup(b)
	if err != nil {
		t.Fatal(err)
	}
	if !dup || id2 != id1 {
		t.Errorf("dedup missed: id1=%s id2=%s dup=%v", id1, id2, dup)
	}
	c := sch("clinic", "patient", "weight")
	_, dup, _ = r.PutDedup(c)
	if dup {
		t.Error("structurally different schema flagged as dup")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	// After deleting, the fingerprint is free again.
	r.Delete(id1)
	_, dup, _ = r.PutDedup(sch("clinic", "patient", "height"))
	if dup {
		t.Error("fingerprint not released on delete")
	}
}

func TestTags(t *testing.T) {
	r := New()
	id1, _ := r.Put(sch("a", "x"))
	id2, _ := r.Put(sch("b", "y"))
	ok1, _ := r.Tag(id1, "health", "clinic")
	ok2, _ := r.Tag(id2, "health")
	if !ok1 || !ok2 {
		t.Fatal("tag failed")
	}
	r.Tag(id1, "health", "") // dup + empty ignored
	if e := r.Entry(id1); !reflect.DeepEqual(e.Tags, []string{"clinic", "health"}) {
		t.Errorf("tags = %v", e.Tags)
	}
	if got := r.ByTag("health"); !reflect.DeepEqual(got, []string{id1, id2}) {
		t.Errorf("ByTag = %v", got)
	}
	if got := r.ByTag("nope"); got != nil {
		t.Errorf("ByTag(nope) = %v", got)
	}
	if ok, err := r.Tag("missing", "t"); ok || err != nil {
		t.Errorf("tagging a missing schema: %v, %v; want false, nil", ok, err)
	}
}

func TestCommentsAndRatings(t *testing.T) {
	r := New()
	id, _ := r.Put(sch("a", "x"))
	if err := r.AddComment(id, Comment{Author: "u1", Text: "great", Rating: 5}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddComment(id, Comment{Author: "u2", Text: "ok", Rating: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddComment(id, Comment{Author: "u3", Text: "no rating"}); err != nil {
		t.Fatal(err)
	}
	avg, n := r.Rating(id)
	if avg != 4 || n != 2 {
		t.Errorf("rating = %v/%d", avg, n)
	}
	if err := r.AddComment(id, Comment{Rating: 9}); err == nil {
		t.Error("out-of-range rating accepted")
	}
	if err := r.AddComment("missing", Comment{Text: "x"}); err == nil {
		t.Error("comment on missing schema accepted")
	}
	if avg, n := r.Rating("missing"); avg != 0 || n != 0 {
		t.Error("rating of missing schema should be zero")
	}
	if e := r.Entry(id); e.Comments[0].At.IsZero() {
		t.Error("comment timestamp not defaulted")
	}
}

func TestUsageCounters(t *testing.T) {
	r := New()
	id1, _ := r.Put(sch("a", "x"))
	id2, _ := r.Put(sch("b", "y"))

	if ok, err := r.RecordSelection(id1); !ok || err != nil {
		t.Fatalf("selection: %v, %v", ok, err)
	}
	if ok, err := r.RecordSelection("missing"); ok || err != nil {
		t.Errorf("selection of missing schema: %v, %v; want false, nil", ok, err)
	}
	if u := r.Usage(id1); u.Selections != 1 {
		t.Errorf("usage(id1) = %+v", u)
	}
	if u := r.Usage(id2); u.Selections != 0 {
		t.Errorf("usage(id2) = %+v", u)
	}
	if u := r.Usage("missing"); u != (Usage{}) {
		t.Errorf("usage(missing) = %+v", u)
	}
	// Usage does not advance the change feed (no re-index churn).
	before := r.Seq()
	r.RecordSelection(id2)
	if r.Seq() != before {
		t.Error("usage recording advanced the change feed")
	}
	// Usage survives persistence.
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if u := r2.Usage(id1); u.Selections != 1 {
		t.Errorf("usage after reload = %+v", u)
	}
}

func TestChangeFeed(t *testing.T) {
	r := New()
	cursor := r.Seq()
	id1, _ := r.Put(sch("a", "x"))
	id2, _ := r.Put(sch("b", "y"))

	ch := r.ChangedSince(cursor)
	if !reflect.DeepEqual(ch.Updated, []string{id1, id2}) || len(ch.Deleted) != 0 {
		t.Fatalf("changes = %+v", ch)
	}
	cursor = ch.Seq

	// No changes → empty delta.
	ch = r.ChangedSince(cursor)
	if len(ch.Updated) != 0 || len(ch.Deleted) != 0 || ch.Seq != cursor {
		t.Fatalf("idle changes = %+v", ch)
	}

	// Modify one, delete the other.
	s := r.Get(id1).Clone()
	s.Description = "updated"
	r.Put(s)
	r.Delete(id2)
	ch = r.ChangedSince(cursor)
	if !reflect.DeepEqual(ch.Updated, []string{id1}) || !reflect.DeepEqual(ch.Deleted, []string{id2}) {
		t.Fatalf("changes = %+v", ch)
	}

	// Tagging counts as a modification (re-index picks up metadata).
	cursor = ch.Seq
	r.Tag(id1, "health")
	ch = r.ChangedSince(cursor)
	if !reflect.DeepEqual(ch.Updated, []string{id1}) {
		t.Fatalf("tag change = %+v", ch)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	r := New()
	id1, _ := r.Put(sch("clinic", "patient", "height"))
	id2, _ := r.Put(sch("retail", "order", "sku"))
	r.Tag(id1, "health")
	r.AddComment(id2, Comment{Author: "kc", Text: "solid", Rating: 4})
	r.Delete(id2)
	id3, _ := r.Put(sch("zoo", "animal"))

	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("Len = %d", r2.Len())
	}
	if got := r2.Get(id1); got == nil || got.Name != "clinic" {
		t.Errorf("Get(%s) = %v", id1, got)
	}
	if e := r2.Entry(id1); len(e.Tags) != 1 {
		t.Errorf("tags lost: %+v", e)
	}
	if !reflect.DeepEqual(r2.IDs(), []string{id1, id3}) {
		t.Errorf("IDs = %v", r2.IDs())
	}
	// Seq continuity: new puts must not collide with old ids.
	id4, _ := r2.Put(sch("new", "a"))
	if id4 == id1 || id4 == id2 || id4 == id3 {
		t.Errorf("id collision after reload: %s", id4)
	}
	// Change feed survives reload.
	ch := r2.ChangedSince(0)
	if len(ch.Updated) != 2 || len(ch.Deleted) != 0 {
		// id4 and the two loaded; loaded entries carry their original seq.
		// Updated should include id1, id3, id4 → 3 entries.
		if len(ch.Updated) != 3 {
			t.Errorf("changes after reload = %+v", ch)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{ not json"), 0o644)
	if _, err := Open(bad); err == nil {
		t.Error("corrupt file should error")
	}
	v9 := filepath.Join(dir, "v9.json")
	os.WriteFile(v9, []byte(`{"version":9}`), 0o644)
	if _, err := Open(v9); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version error = %v", err)
	}
	// Order referencing a missing entry.
	orphan := filepath.Join(dir, "orphan.json")
	os.WriteFile(orphan, []byte(`{"version":1,"order":["s1"],"entries":{}}`), 0o644)
	if _, err := Open(orphan); err == nil {
		t.Error("orphan order entry should error")
	}
	// Entry whose schema id mismatches its key.
	mismatch := filepath.Join(dir, "mismatch.json")
	os.WriteFile(mismatch, []byte(`{"version":1,"order":["s1"],"entries":{"s1":{"schema":{"id":"zz","name":"x","entities":[{"name":"e"}]}}}}`), 0o644)
	if _, err := Open(mismatch); err == nil {
		t.Error("id mismatch should error")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var myIDs []string
			for i := 0; i < 40; i++ {
				switch i % 5 {
				case 0, 1:
					id, err := r.Put(sch(fmt.Sprintf("w%d-s%d", w, i), "a", "b"))
					if err != nil {
						t.Error(err)
						return
					}
					myIDs = append(myIDs, id)
				case 2:
					if len(myIDs) > 0 {
						r.Tag(myIDs[0], "t")
					}
				case 3:
					r.ChangedSince(0)
					r.Len()
				case 4:
					if len(myIDs) > 1 {
						r.Delete(myIDs[1])
						myIDs = append(myIDs[:1], myIDs[2:]...)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// IDs must be unique.
	seen := map[string]bool{}
	for _, id := range r.IDs() {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

// TestEntryIsSafeBesideWriters reads Entry's counters, tags and comments
// while RecordSelection, Tag and AddComment update the
// same entry; run under -race, reading the live entry after the lock is
// released is a data race.
func TestEntryIsSafeBesideWriters(t *testing.T) {
	r := New()
	id, err := r.Put(sch("patients", "id", "height"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			r.RecordSelection(id)
			r.Tag(id, fmt.Sprint("t", i))
			if err := r.AddComment(id, Comment{Author: "a", Text: fmt.Sprint(i)}); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			e := r.Entry(id)
			_ = e.Usage.Selections
			for _, tag := range e.Tags {
				_ = tag
			}
			for _, c := range e.Comments {
				_ = c.Text
			}
		}
	}()
	wg.Wait()
	if e := r.Entry(id); e.Usage.Selections != n || len(e.Tags) != n || len(e.Comments) != n {
		t.Fatalf("after %d rounds: usage %+v, %d tags, %d comments", n, e.Usage, len(e.Tags), len(e.Comments))
	}
}
