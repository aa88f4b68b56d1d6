package repository

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"

	"schemr/internal/fsutil"
)

// A snapshot is a compacted log: snapshotMagic, then one WAL frame per
// live entry (insertion order), API key (hash order), feedback window and
// weight set, then a snapshot record carrying the rest of the state and
// the number of records before it, so a file cut at a frame boundary is
// detected. It loads through the same reader, decode stage and apply
// function as the WAL; any bad frame fails the load. DESIGN.md §9 has
// the details, and why the file is still called repository.json.
const (
	// snapshotMagic opens every framed snapshot; a file without it is a
	// legacy single-object JSON snapshot.
	snapshotMagic       = "schemr-snapshot/2\n"
	snapshotMagicPrefix = "schemr-snapshot/"
	// opSnapshot is the trailing snapshot record; it never appears in a WAL.
	opSnapshot = "snapshot"
)

// snapshotMeta is the snapshot record's payload (its LSN and seq ride in
// the record's own fields).
type snapshotMeta struct {
	Records         int               `json:"records"`
	NextIDs         map[string]int    `json:"nextIds,omitempty"`
	Deleted         map[string]uint64 `json:"deleted,omitempty"`
	WeightVersion   uint64            `json:"weightVersion,omitempty"`
	PromotedVersion uint64            `json:"promotedVersion,omitempty"`
}

// writeSnapshot streams the repository as a compacted log. Caller holds
// at least a read lock for the whole call: entries are mutated in place.
func (r *Repository) writeSnapshot(w io.Writer) error {
	_, err := io.WriteString(w, snapshotMagic)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	n := 0
	write := func(rec *walRecord) {
		if err == nil {
			buf.Reset()
			if err = enc.Encode(rec); err == nil {
				err = writeFrame(w, buf.Bytes())
			}
			n++
		}
	}
	var put []byte
	for _, id := range r.order {
		if err == nil {
			if put, err = appendPut(put[:0], r.entries[id]); err == nil {
				err = writeFrame(w, put)
			}
			n++
		}
	}
	hashes := make([]string, 0, len(r.keys))
	for h := range r.keys {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		write(&walRecord{Op: opKeyCreate, ID: h, Key: r.keys[h]})
	}
	if len(r.feedback) > 0 {
		write(&walRecord{Op: opFeedback, Feedback: r.feedback})
	}
	for _, ws := range r.weightSets {
		write(&walRecord{Op: opWeightSet, WeightSet: ws})
	}
	write(&walRecord{Op: opSnapshot, Lsn: r.lsn, Seq: r.seq, Snapshot: &snapshotMeta{
		Records: n, NextIDs: r.nextIDs, Deleted: r.deleted,
		WeightVersion: r.weightVersion, PromotedVersion: r.promotedVersion,
	}})
	return err
}

// appendPut appends a snapshot's put record for e: byte for byte what the
// encoder writes for walRecord{Op: opPut, Entry: e}, newline included, but
// with the schema's stored bytes copied in rather than run through the
// encoder again (which would re-scan them). The rest of the entry is
// encoded with a null schema, whose leading `{"schema":null` is swapped for
// the stored bytes; addedAt and seq always follow it.
func appendPut(b []byte, e *entry) ([]byte, error) {
	const prefix = `{"schema":null`
	meta := *e
	meta.Schema = nil
	rest, err := json.Marshal(&meta)
	if err != nil {
		return b, err
	}
	b = append(b, `{"op":"put","entry":{"schema":`...)
	b = append(b, e.Schema...)
	b = append(b, rest[len(prefix):]...)
	return append(b, "}\n"...), nil
}

// Save durably writes the repository to path: temp file, fsync, rename,
// parent-directory fsync. Unlike Snapshot it leaves any attached WAL
// untouched (recovery still skips the covered records via the snapshot's
// LSN).
func (r *Repository) Save(path string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.saveLocked(path)
}

func (r *Repository) saveLocked(path string) error {
	if err := fsutil.WriteFileAtomic(path, r.writeSnapshot); err != nil {
		return fmt.Errorf("repository: save: %w", err)
	}
	return nil
}

// Open loads a repository saved by Save (or a legacy JSON snapshot).
func Open(path string) (*Repository, error) {
	r, _, err := openSnapshot(path)
	return r, err
}

// openSnapshot is Open that also reports whether the file was a legacy
// snapshot, which a durable open rewrites.
func openSnapshot(path string) (*Repository, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("repository: open: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("repository: open: %w", err)
	}
	r, legacy, err := readSnapshot(bufio.NewReaderSize(f, 64<<10), fi.Size())
	if err != nil {
		return nil, false, fmt.Errorf("repository: open %s: %w", path, err)
	}
	return r, legacy, nil
}

// readSnapshot loads a snapshot stream of size bytes into a fresh
// repository: a framed compacted log, or — without the magic — a legacy
// JSON snapshot.
func readSnapshot(br *bufio.Reader, size int64) (*Repository, bool, error) {
	head, _ := br.Peek(len(snapshotMagic))
	if string(head) != snapshotMagic {
		if bytes.HasPrefix(head, []byte(snapshotMagicPrefix)) {
			return nil, false, fmt.Errorf("unsupported snapshot version %q", head)
		}
		r, err := importLegacy(br)
		return r, true, err
	}
	br.Discard(len(snapshotMagic))
	r := New()
	n, done := 0, false
	_, err := replay(&frameReader{r: br, off: int64(len(snapshotMagic)), size: size}, func(d *decoded) error {
		switch {
		case done:
			return fmt.Errorf("record after the snapshot record")
		case d.rec.Op == opSnapshot:
			done = true
			return r.applySnapshot(&d.rec, n)
		}
		n++
		return r.applyRecord(d)
	})
	if err == nil && !done {
		err = fmt.Errorf("snapshot ends without its snapshot record")
	}
	if err != nil {
		return nil, false, err
	}
	return r, false, nil
}

// applySnapshot installs the trailing snapshot record after n records.
func (r *Repository) applySnapshot(rec *walRecord, n int) error {
	m := rec.Snapshot
	if m == nil || m.Records != n {
		return fmt.Errorf("snapshot record does not match the %d records before it", n)
	}
	r.lsn, r.seq = rec.Lsn, rec.Seq
	if m.NextIDs != nil {
		r.nextIDs = m.NextIDs
	}
	if m.Deleted != nil {
		r.deleted = m.Deleted
	}
	r.weightVersion = max(r.weightVersion, m.WeightVersion)
	r.promotedVersion = m.PromotedVersion
	return nil
}

// persisted is the legacy snapshot: one JSON object. Only importLegacy
// reads it; a durable open rewrites it as a compacted log.
type persisted struct {
	Version         int                  `json:"version"`
	NextID          int                  `json:"nextId"`
	NextIDs         map[string]int       `json:"nextIds,omitempty"`
	Seq             uint64               `json:"seq"`
	Lsn             uint64               `json:"lsn,omitempty"`
	Order           []string             `json:"order"`
	Entries         map[string]*Entry    `json:"entries"`
	Deleted         map[string]uint64    `json:"deleted,omitempty"`
	Keys            map[string]*KeyEntry `json:"keys,omitempty"`
	Feedback        []FeedbackEvent      `json:"feedback,omitempty"`
	WeightSets      []*WeightSet         `json:"weightSets,omitempty"`
	WeightVersion   uint64               `json:"weightVersion,omitempty"`
	PromotedVersion uint64               `json:"promotedVersion,omitempty"`
}

// importLegacy decodes a legacy snapshot and loads it the way it would
// load if it had been written framed: the decoded fields are streamed as
// a compacted log and read back through readSnapshot.
func importLegacy(rd io.Reader) (*Repository, error) {
	var p persisted
	if err := json.NewDecoder(rd).Decode(&p); err != nil {
		return nil, err
	}
	if p.Version != 1 {
		return nil, fmt.Errorf("unsupported version %d", p.Version)
	}
	for _, id := range p.Order {
		if e := p.Entries[id]; e == nil || e.Schema == nil || e.Schema.ID != id {
			return nil, fmt.Errorf("order lists %q but no entry holds that schema", id)
		}
	}
	nextIDs := map[string]int{"": p.NextID}
	maps.Copy(nextIDs, p.NextIDs)
	entries := make(map[string]*entry, len(p.Order))
	for _, id := range p.Order { // entries outside the order are not written
		e := p.Entries[id]
		raw, err := json.Marshal(e.Schema)
		if err != nil {
			return nil, err
		}
		entries[id] = &entry{Schema: raw, Tags: e.Tags, Comments: e.Comments,
			Usage: e.Usage, AddedAt: e.AddedAt, Seq: e.Seq}
	}
	legacy := &Repository{state: state{entries: entries, order: p.Order, nextIDs: nextIDs,
		seq: p.Seq, lsn: p.Lsn, deleted: p.Deleted, keys: p.Keys,
		feedback: p.Feedback, weightSets: p.WeightSets,
		weightVersion: p.WeightVersion, promotedVersion: p.PromotedVersion}}
	var buf bytes.Buffer
	if err := legacy.writeSnapshot(&buf); err != nil {
		return nil, err
	}
	r, _, err := readSnapshot(bufio.NewReader(&buf), int64(buf.Len()))
	return r, err
}
