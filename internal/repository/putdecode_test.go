package repository

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"schemr/internal/model"
)

// FuzzDecodePut is the decoder's differential test: for any bytes,
// decodePut either declines or decodes exactly what json.Unmarshal does,
// and json.Unmarshal accepts them. The transient graph it leaves has the
// ID, fingerprint, header and Validate verdict of the schema
// json.Unmarshal decodes from the entry's bytes. Seeds in
// testdata/fuzz/FuzzDecodePut: every record kind, rich puts, escapes,
// non-ASCII and invalid UTF-8, repeated and case-variant keys, null,
// awkward numbers, trailing bytes.
func FuzzDecodePut(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var got walRecord
		pd := new(putDecoder)
		if !pd.decode(data, string(data), &got) {
			return
		}
		var want walRecord
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decodePut accepted what json.Unmarshal rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodePut differs from json.Unmarshal on %q:\n got %+v\nwant %+v", data, got, want)
		}
		var s *model.Schema
		if want.Entry != nil && want.Entry.Schema != nil {
			if err := json.Unmarshal(want.Entry.Schema, &s); err != nil {
				t.Fatal(err)
			}
		}
		if g := pd.graph; g == nil || s == nil {
			if g != nil || s != nil {
				t.Fatalf("transient graph %v, unmarshalled schema %v on %q", g, s, data)
			}
		} else if derived(g, want.Entry.Seq) != derived(s, want.Entry.Seq) {
			t.Fatalf("transient graph differs from json.Unmarshal on %q:\n got %s\nwant %s",
				data, derived(g, want.Entry.Seq), derived(s, want.Entry.Seq))
		}
	})
}

// derived renders what recovery derives from a put's schema: its ID,
// fingerprint, header and Validate verdict.
func derived(s *model.Schema, seq uint64) string {
	return fmt.Sprintf("%q %s %+v %v", s.ID, s.Fingerprint(), headerOf(s, seq), s.Validate())
}

// FuzzDecodeSchema is the same differential test for stored schema bytes
// (what Get, Entry, All and profile builds decode): the put decoder's
// schema path either declines or decodes exactly what json.Unmarshal does.
// FuzzDecodePut compares put records, whose entries hold the schema as
// bytes; this target compares the schema graphs.
func FuzzDecodeSchema(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b, err := json.Marshal(richSchema(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{
		`{"name":"n","entities":[]}`, `{"name":"n","entities":[null]}`, `null`,
		`{"name":"a\u0062","entities":[]}`, `{"name":"n","entities":[{"name":"e","attributes":[{"name":"a","nullable":true}]}]} `,
		`{"entities":[{"name":"e"}],"name":"late"}`, `{"name":"n","foreignKeys":[{"fromEntity":"e","fromColumns":["a"],"toEntity":"e"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := new(putDecoder).decodeSchema(data)
		if !ok {
			return
		}
		var want *model.Schema
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decodeSchema accepted what json.Unmarshal rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeSchema differs from json.Unmarshal on %q:\n got %+v\nwant %+v", data, got, want)
		}
		if dec, err := DecodeSchema(data); err != nil || !reflect.DeepEqual(dec, want) {
			t.Fatalf("DecodeSchema(%q) = %+v, %v; want %+v", data, dec, err, want)
		}
	})
}

// frames splits a framed stream (after any snapshot magic) into payloads.
func frames(t testing.TB, data []byte) [][]byte {
	t.Helper()
	data = bytes.TrimPrefix(data, []byte(snapshotMagic))
	fr := &frameReader{r: bufio.NewReader(bytes.NewReader(data)), size: int64(len(data))}
	var out [][]byte
	for {
		_, p, err := fr.next(nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

// richSchema is a multi-entity schema with every model field set, and
// names outside ASCII.
func richSchema(rng *rand.Rand) *model.Schema {
	names := []string{"patient", "Größe", "名前", "día", "ørder", "qty", "naïve_col", "emoji😀"}
	s := &model.Schema{
		Name: names[rng.Intn(len(names))], Description: "über " + fmt.Sprint(rng.Intn(100)),
		Source: "https://example.org/ß", Format: []string{"ddl", "xsd", "webtable"}[rng.Intn(3)],
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		e := &model.Entity{Name: fmt.Sprintf("%s_%d", names[rng.Intn(len(names))], i), Documentation: "Tabelle für " + names[rng.Intn(len(names))]}
		if i > 0 && rng.Intn(2) == 0 {
			e.Parent = s.Entities[0].Name
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			e.Attributes = append(e.Attributes, &model.Attribute{
				Name: fmt.Sprintf("%s%d", names[rng.Intn(len(names))], j), Type: "VARCHAR(255)",
				Nullable: rng.Intn(2) == 0, Documentation: []string{"", "größe in cm"}[rng.Intn(2)],
			})
		}
		e.PrimaryKey = []string{e.Attributes[0].Name}
		s.Entities = append(s.Entities, e)
	}
	if len(s.Entities) > 1 {
		from, to := s.Entities[1], s.Entities[0]
		s.ForeignKeys = []model.ForeignKey{{Name: "fk_ü", FromEntity: from.Name, FromColumns: []string{from.Attributes[0].Name},
			ToEntity: to.Name, ToColumns: []string{to.Attributes[0].Name}}}
	}
	return s
}

// TestDecodePutCoversWrittenPuts checks that the put decoder is not a
// fallback in name only: after a randomized op sequence (replaces, tags,
// comments, usage, two tenants, non-ASCII names), every put frame in the
// WAL and in the snapshot decodes on the new path, to the record
// json.Unmarshal decodes.
func TestDecodePutCoversWrittenPuts(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
		r, _ := recoverAt(t, snap, walPath)
		at := time.Date(2009, 6, 29, 0, 0, 0, 123456789, time.FixedZone("CEST", 2*3600))
		for i := 0; i < 60; i++ {
			randomOps(t, r, rng, 2)
			tn := []string{"", "acme"}[rng.Intn(2)]
			s := richSchema(rng)
			if ids := r.IDsTenant(tn); len(ids) > 0 && rng.Intn(3) == 0 {
				s.ID = ids[rng.Intn(len(ids))] // replace
			}
			id, err := r.PutTenant(tn, s)
			if err != nil {
				t.Fatal(err)
			}
			r.Tag(id, "größe", "tag")
			if err := r.AddComment(id, Comment{Author: "zoë", Text: "schön", Rating: rng.Intn(6), At: at.Add(time.Duration(i) * time.Hour)}); err != nil {
				t.Fatal(err)
			}
			r.RecordSelection(id)
		}
		walData, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Snapshot(snap, 0); err != nil {
			t.Fatal(err)
		}
		r.Close()
		snapData, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		puts := 0
		for _, p := range append(frames(t, walData), frames(t, snapData)...) {
			var want walRecord
			if err := json.Unmarshal(p, &want); err != nil {
				t.Fatal(err)
			}
			var got walRecord
			ok := new(putDecoder).decode(p, string(p), &got)
			if want.Op != opPut {
				if ok {
					t.Fatalf("seed %d: decodePut accepted a %q record", seed, want.Op)
				}
				continue
			}
			puts++
			if !ok {
				t.Fatalf("seed %d: put frame fell back to json.Unmarshal: %s", seed, p)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: decodePut differs from json.Unmarshal on %s", seed, p)
			}
		}
		if puts < 60 {
			t.Fatalf("seed %d: only %d put frames", seed, puts)
		}
	}
}

// TestDecodePutDeclines lists what the decoder must leave to
// json.Unmarshal.
func TestDecodePutDeclines(t *testing.T) {
	const put = `{"op":"put","lsn":3,"seq":2,"entry":{"schema":{"id":"s000001","name":"n","entities":[{"name":"e","attributes":[{"name":"a"}]}]},"addedAt":"2009-06-29T00:00:00Z","seq":2},"nextId":1}`
	var rec walRecord
	if !new(putDecoder).decode([]byte(put+"\n"), put+"\n", &rec) {
		t.Fatal("declined a plain put")
	}
	for name, p := range map[string]string{
		"other op":       `{"op":"delete","lsn":4,"seq":3,"id":"s000001"}`,
		"no op":          `{"lsn":3}`,
		"op not first":   `{"lsn":3,"op":"put"}`,
		"unknown key":    `{"op":"put","lsn":3,"extra":1}`,
		"repeated key":   `{"op":"put","lsn":3,"lsn":4}`,
		"case variant":   `{"op":"put","LSN":3}`,
		"null entry":     `{"op":"put","entry":null}`,
		"null entity":    `{"op":"put","entry":{"schema":{"name":"n","entities":[null]}}}`,
		"escape":         `{"op":"put","tenant":"a\u0062"}`,
		"escaped quote":  `{"op":"put","tenant":"a\"b"}`,
		"invalid utf-8":  "{\"op\":\"put\",\"tenant\":\"\xff\"}",
		"control char":   "{\"op\":\"put\",\"tenant\":\"a\tb\"}",
		"negative uint":  `{"op":"put","lsn":-1}`,
		"fraction":       `{"op":"put","lsn":1.0}`,
		"exponent":       `{"op":"put","nextId":1e3}`,
		"leading zero":   `{"op":"put","lsn":01}`,
		"overflow":       `{"op":"put","lsn":18446744073709551616}`,
		"int overflow":   `{"op":"put","nextId":9223372036854775808}`,
		"trailing bytes": put + `x`,
		"two objects":    put + put,
		"whitespace":     `{"op": "put"}`,
		"bad time":       `{"op":"put","entry":{"addedAt":"yesterday"}}`,
		"truncated":      put[:len(put)-1],
	} {
		var rec walRecord
		if new(putDecoder).decode([]byte(p), p, &rec) {
			t.Errorf("%s: decodePut accepted %s", name, p)
		}
	}
}

// benchFrames is the put frames of a snapshot of n rich schemas.
func benchFrames(b *testing.B, n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	r := New()
	for i := 0; i < n; i++ {
		if _, err := r.Put(richSchema(rng)); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.writeSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	all := frames(b, buf.Bytes())
	return all[:len(all)-1] // drop the snapshot record
}

func BenchmarkDecodePut(b *testing.B) {
	ps := benchFrames(b, 1000)
	var pd putDecoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec walRecord
		p := ps[i%len(ps)]
		if !pd.decode(p, string(p), &rec) {
			b.Fatal("declined")
		}
	}
}

func BenchmarkDecodePutJSON(b *testing.B) {
	ps := benchFrames(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec walRecord
		if err := json.Unmarshal(ps[i%len(ps)], &rec); err != nil {
			b.Fatal(err)
		}
	}
}
