package repository

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"schemr/internal/model"
)

// TestOnDiskBytesUnchanged pins the bytes a durable repository writes: a
// fixed op sequence over schemas whose strings need JSON escaping must
// produce a WAL and a snapshot with exactly these SHA-256 digests, which
// were recorded when every put and snapshot frame encoded the schema
// graph. Writing stored bytes instead must not move a byte, so older
// readers and the data directory's size are unaffected. The sequence's
// one selection logs the record a coalesced usage flush wrote for it
// before selections were logged one by one: the digests are the ones the
// coalescing writer produced for this sequence.
func TestOnDiskBytesUnchanged(t *testing.T) {
	const (
		wantWAL      = "77bcf889af03f0ec0e14761ee7ee61476067d8d8e246a9c53bc3437e8e002e14"
		wantSnapshot = "10772a8ae29f9a5206d28d935e7857c69cedfe9d3e8a7c4bc696046b6c7f53a9"
	)
	at := time.Date(2009, 6, 29, 12, 30, 0, 120000000, time.UTC)
	defer func(f func() time.Time) { now = f }(now)
	now = func() time.Time { at = at.Add(time.Minute); return at }

	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
	r, _ := recoverAt(t, snap, walPath)
	defer r.Close()
	escaped := &model.Schema{
		Name:        `<b>"Orders" & Ärger</b>`,
		Description: "line\u2028separator, tab\tand \\ backslash",
		Source:      "https://example.org/?a=1&b=<2>",
		Format:      "ddl",
		Entities: []*model.Entity{
			{Name: "order", Documentation: "Bestellungen – <all> of them", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"},
				{Name: "größe", Type: "VARCHAR(8)", Nullable: true, Documentation: `size in "cm"`},
			}, PrimaryKey: []string{"id"}},
			{Name: "line", Attributes: []*model.Attribute{{Name: "order_id", Type: "INT"}, {Name: "名前"}}},
		},
		ForeignKeys: []model.ForeignKey{{Name: "fk&1", FromEntity: "line", FromColumns: []string{"order_id"}, ToEntity: "order", ToColumns: []string{"id"}}},
	}
	id1, err := r.Put(escaped)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.PutTenant("acme", sch("clinic ", "patient", "height"))
	if err != nil {
		t.Fatal(err)
	}
	id3, err := r.Put(sch("plain", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tag(id1, "<tag>", "ß"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddComment(id1, Comment{Author: "zoë", Text: `"fine" & <ok>`, Rating: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RecordSelection(id1); err != nil {
		t.Fatal(err)
	}
	replaced := sch("plain v2 <&>", "a", "b", "c")
	replaced.ID = id3
	if _, err := r.Put(replaced); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Delete(id2); !ok || err != nil {
		t.Fatalf("delete: %v, %v", ok, err)
	}
	digest := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	if got := digest(walPath); got != wantWAL {
		t.Errorf("WAL sha256 = %s, want %s", got, wantWAL)
	}
	if err := r.Snapshot(snap, 0); err != nil {
		t.Fatal(err)
	}
	if got := digest(snap); got != wantSnapshot {
		t.Errorf("snapshot sha256 = %s, want %s", got, wantSnapshot)
	}
}
