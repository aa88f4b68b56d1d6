package repository

import (
	"bufio"
	"bytes"
	"fmt"
)

// Replication model. A durable repository doubles as a replication
// primary: every WAL record it acknowledges is also retained in a bounded
// in-memory ring, keyed by LSN. A read-only replica polls RecordsSince
// with its own LSN and applies the returned records verbatim through
// ApplyReplicated — each record is appended to the replica's own WAL
// (fsynced, preserving the primary's LSN) before it is applied, so a
// replica recovers from kill -9 exactly like a primary and resumes
// catch-up from its recovered LSN. A replica that has fallen behind the
// retention window (or starts empty against a long-lived primary) is told
// to resync: it downloads the primary's full state with ExportState,
// installs it with InstallState, and continues streaming from the
// snapshot's LSN. LSNs are dense (each record is exactly the previous +1),
// which makes gap detection trivial and catch-up idempotent.

// replicationRetention is how many acknowledged WAL records a primary
// retains in memory for streaming. At the default snapshot interval this
// covers minutes of sustained mutation; a replica further behind than
// this resyncs from a full state export.
const replicationRetention = 4096

// retainedRecord is one ring entry: an acknowledged record's LSN and its
// JSON payload exactly as framed into the WAL (no trailing newline).
type retainedRecord struct {
	lsn     uint64
	payload []byte
}

// retainLocked adds one acknowledged record to the retention ring,
// evicting the oldest beyond capacity. Caller holds the write lock.
func (r *Repository) retainLocked(lsn uint64, payload []byte) {
	cap := r.retainCap
	if cap == 0 {
		cap = replicationRetention
	}
	r.recent = append(r.recent, retainedRecord{lsn: lsn, payload: payload})
	if n := len(r.recent) - cap; n > 0 {
		r.recent = append(r.recent[:0:0], r.recent[n:]...)
	}
}

// LSN returns the log sequence number of the last mutation this
// repository has logged or applied — the replication cursor.
func (r *Repository) LSN() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lsn
}

// ReplicationBatch is one RecordsSince response: the records after the
// requested LSN (ascending, dense) and the primary's current LSN. Resync
// means the requested position has aged out of the retention ring and the
// replica must reinstall a full state export before streaming again.
type ReplicationBatch struct {
	LSN     uint64
	Records [][]byte
	Resync  bool
}

// RecordsSince returns the retained records with LSN > from. A replica in
// sync gets an empty batch; one behind the retention window gets Resync.
func (r *Repository) RecordsSince(from uint64) ReplicationBatch {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b := ReplicationBatch{LSN: r.lsn}
	if from >= r.lsn {
		return b
	}
	// The ring must contain every record in (from, lsn]: its oldest entry
	// has to be at or before from+1. Records below the ring force a
	// resync. An empty ring with from < lsn is the same situation (the
	// records were acknowledged before this process retained any — e.g.
	// applied during recovery, which replays from the WAL file only).
	if len(r.recent) == 0 || r.recent[0].lsn > from+1 {
		b.Resync = true
		return b
	}
	for _, rec := range r.recent {
		if rec.lsn > from {
			b.Records = append(b.Records, rec.payload)
		}
	}
	return b
}

// ExportState serializes the full repository state for a resyncing
// replica — the snapshot stream byte for byte, LSN, per-tenant ID counters
// and API keys included, so a replica can authenticate the same tenants
// as its primary — and returns the LSN it covers.
func (r *Repository) ExportState() ([]byte, uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var buf bytes.Buffer
	if err := r.writeSnapshot(&buf); err != nil {
		return nil, 0, fmt.Errorf("repository: export state: %w", err)
	}
	return buf.Bytes(), r.lsn, nil
}

// InstallState replaces the repository's contents with a primary's
// ExportState payload — the resync path. The payload is loaded exactly
// like a snapshot file, and any bad frame rejects it whole, leaving the
// repository untouched. The replica's own WAL (if attached) stays
// attached; the caller should snapshot promptly so the local WAL is
// truncated to records the installed state does not already cover.
// The retention ring is discarded: it described the replaced state.
func (r *Repository) InstallState(data []byte) error {
	fresh, err := readSnapshot(bufio.NewReader(bytes.NewReader(data)), int64(len(data)))
	if err != nil {
		return fmt.Errorf("repository: install state: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = fresh.state
	r.recent = nil
	return nil
}

// ApplyReplicated applies one record streamed from a primary. The record
// is made durable first — appended verbatim to the replica's own WAL,
// fsynced, primary LSN preserved — then applied, so an acked record
// survives kill -9 and recovery resumes from the right LSN. Records at or
// below the current LSN are skipped (idempotent catch-up retries); a
// record beyond LSN+1 reports a gap, which the poll loop treats like a
// retention miss and resolves by resync. Returns whether the record was
// applied.
func (r *Repository) ApplyReplicated(payload []byte) (bool, error) {
	d := decoded{payload: payload}
	if d.decode(new(putDecoder), string(payload)); d.err != nil {
		return false, fmt.Errorf("repository: replicated record: %w", d.err)
	}
	rec := &d.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.Lsn <= r.lsn {
		return false, nil
	}
	if rec.Lsn != r.lsn+1 {
		return false, fmt.Errorf("repository: replication gap: have lsn %d, got %d", r.lsn, rec.Lsn)
	}
	if r.wal != nil {
		if err := r.wal.append(append(payload, '\n')); err != nil {
			return false, err
		}
	}
	if err := r.applyRecord(&d); err != nil {
		return false, err
	}
	r.lsn = rec.Lsn
	r.retainLocked(rec.Lsn, payload)
	if r.met != nil {
		r.met.ReplicaApplied.Inc()
	}
	return true, nil
}
