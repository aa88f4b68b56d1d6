package repository

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	// snapshotMagic opens every snapshot.
	snapshotMagic = "schemr-snapshot/2\n"
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

// Open loads a repository saved by Save.
func Open(path string) (*Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("repository: open: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("repository: open: %w", err)
	}
	r, err := readSnapshot(bufio.NewReaderSize(f, 64<<10), fi.Size())
	if err != nil {
		return nil, fmt.Errorf("repository: open %s: %w", path, err)
	}
	return r, nil
}

// readSnapshot loads a snapshot stream of size bytes into a fresh
// repository.
func readSnapshot(br *bufio.Reader, size int64) (*Repository, error) {
	head, _ := br.Peek(len(snapshotMagic))
	if string(head) != snapshotMagic {
		return nil, fmt.Errorf("unsupported snapshot: no %q version line (single-object JSON snapshots are no longer read)", snapshotMagic[:len(snapshotMagic)-1])
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
		return nil, err
	}
	return r, nil
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
