package repository

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"schemr/internal/obs"
)

// Durability model. A repository opened with Recover has one rule for
// every mutation: it is logged to a write-ahead log and fsynced first,
// then applied, or it is not applied and the call returns the error. Put,
// Delete, Tag, AddComment, RecordSelection and the key and relevance-loop
// mutations append one record each, so once the call returns the mutation
// survives kill -9. A search writes nothing. A periodic Snapshot rewrites
// the full repository as a compacted log (fsynced file and parent
// directory; see snapshot.go), truncates the WAL and compacts the deleted
// map; recovery is snapshot + replay of records the snapshot does not
// already cover, decided by each record's log sequence number (LSN).

// ErrUnavailable wraps every failure to log a mutation (encoding, write or
// fsync): the mutation was not applied, and the fault is the storage's,
// not the caller's input. Test for it with errors.Is.
var ErrUnavailable = errors.New("repository unavailable")

// walRecord is one logged mutation. Op selects which fields are
// meaningful. Records carry final state (the merged entry, the full tag
// set, the completed comment) rather than operation arguments, so replay
// is a verbatim install with no re-derivation of timestamps or merges.
// A usage record is the one increment: replay applies each LSN once, so
// adding its count is exact.
type walRecord struct {
	Op  string `json:"op"`
	Lsn uint64 `json:"lsn,omitempty"` // 0 only inside snapshots
	Seq uint64 `json:"seq,omitempty"`

	// opPut: the full entry as stored, plus the owning tenant's ID counter
	// after assignment so recovered repositories never reissue an ID.
	// Tenant is absent for the default namespace, keeping pre-tenancy
	// records byte-identical.
	Entry  *entry `json:"entry,omitempty"`
	NextID int    `json:"nextId,omitempty"`
	Tenant string `json:"tenant,omitempty"`

	// opDelete / opTag / opComment target; opKeyCreate / opKeyRevoke key
	// hash.
	ID string `json:"id,omitempty"`

	// opTag: the entry's complete tag set after the call.
	Tags []string `json:"tags,omitempty"`

	// opComment: the appended comment, timestamp filled in.
	Comment *Comment `json:"comment,omitempty"`

	// opUsage: selections to add, by ID. RecordSelection logs one ID with
	// one selection; older logs batch several IDs per record and carry
	// impression counts, which decode ignores.
	Usage map[string]Usage `json:"usage,omitempty"`

	// opKeyCreate: the stored key binding (the hash is in ID; plaintext
	// never touches the log).
	Key *KeyEntry `json:"key,omitempty"`

	// opFeedback: one acknowledged batch of search-interaction events
	// (relevance-loop training data; see feedback.go). Like the key
	// records, feedback and weight records carry no Seq and never advance
	// the change feed on replay.
	Feedback []FeedbackEvent `json:"feedback,omitempty"`

	// opWeightSet: a versioned candidate weight table; opWeightPromote:
	// the version being promoted to serving.
	WeightSet     *WeightSet `json:"weightSet,omitempty"`
	WeightVersion uint64     `json:"weightVersion,omitempty"`

	// opSnapshot: the trailing record of a snapshot (see snapshot.go).
	Snapshot *snapshotMeta `json:"snapshot,omitempty"`
}

const (
	opPut           = "put"
	opDelete        = "delete"
	opTag           = "tag"
	opComment       = "comment"
	opUsage         = "usage"
	opKeyCreate     = "key_create"
	opKeyRevoke     = "key_revoke"
	opFeedback      = "feedback"
	opWeightSet     = "weight_set"
	opWeightPromote = "weight_promote"
)

// Metrics is the durability layer's observability hook. Fields are
// nil-safe obs instruments; a nil *Metrics disables recording entirely.
type Metrics struct {
	// Appends counts fsync-acknowledged WAL records.
	Appends *obs.Counter
	// AppendBytes counts framed bytes written to the WAL.
	AppendBytes *obs.Counter
	// FsyncSeconds is the latency of the fsync that acknowledges each
	// append — the durability tax on the mutation path.
	FsyncSeconds *obs.Histogram
	// SizeBytes is the WAL's current length; it saw-tooths down to zero at
	// every snapshot.
	SizeBytes *obs.Gauge
	// Replayed counts WAL records applied during recovery (records the
	// snapshot already covered are not counted).
	Replayed *obs.Counter
	// RecoveriesClean / RecoveriesTornTail count Recover outcomes: a WAL
	// read to its end versus one cut back at a torn or corrupt frame.
	RecoveriesClean    *obs.Counter
	RecoveriesTornTail *obs.Counter
	// Snapshots counts successful Snapshot calls; SnapshotSeconds times
	// them (serialization + fsync + rename + dir fsync).
	Snapshots       *obs.Counter
	SnapshotSeconds *obs.Histogram
	// ReplicaApplied counts records applied from a replication primary;
	// ReplicaLag is the last observed primary LSN minus the local LSN
	// (0 when caught up, and always 0 on a primary).
	ReplicaApplied *obs.Counter
	ReplicaLag     *obs.Gauge
}

// NewMetrics registers the durability metric families on reg and returns
// the hook to pass to Recover.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Appends:            reg.Counter("schemr_wal_appends_total", "Fsync-acknowledged write-ahead-log records.", nil),
		AppendBytes:        reg.Counter("schemr_wal_append_bytes_total", "Framed bytes written to the write-ahead log.", nil),
		FsyncSeconds:       reg.Histogram("schemr_wal_fsync_seconds", "Latency of the fsync acknowledging each WAL append.", nil, nil),
		SizeBytes:          reg.Gauge("schemr_wal_size_bytes", "Current write-ahead-log length in bytes.", nil),
		Replayed:           reg.Counter("schemr_wal_replayed_records_total", "WAL records applied during recovery.", nil),
		RecoveriesClean:    reg.Counter("schemr_recovery_total", "Repository recoveries by outcome.", obs.Labels{"outcome": "clean"}),
		RecoveriesTornTail: reg.Counter("schemr_recovery_total", "Repository recoveries by outcome.", obs.Labels{"outcome": "torn_tail"}),
		Snapshots:          reg.Counter("schemr_snapshots_total", "Successful repository snapshots.", nil),
		SnapshotSeconds:    reg.Histogram("schemr_snapshot_seconds", "Repository snapshot duration (serialize + fsync + rename).", nil, nil),
		ReplicaApplied:     reg.Counter("schemr_replica_applied_total", "WAL records applied from a replication primary.", nil),
		ReplicaLag:         reg.Gauge("schemr_replica_lag", "Replication lag in WAL records (primary LSN minus local LSN).", nil),
	}
}

// RecoveryStats reports what Recover found on disk.
type RecoveryStats struct {
	// SnapshotLoaded is true when a snapshot file existed and was loaded.
	SnapshotLoaded bool
	// Replayed is the number of WAL records applied on top of the
	// snapshot; Skipped counts intact records the snapshot already
	// covered (possible when a crash hit between snapshot and WAL
	// truncation).
	Replayed, Skipped int
	// TornTail is true when the WAL ended in a torn or corrupt frame and
	// was truncated back to its intact prefix at byte offset TruncatedAt.
	TornTail    bool
	TruncatedAt int64
}

// Recover opens a durable repository: it loads the snapshot at
// snapshotPath if one exists (otherwise starts empty), replays the WAL at
// walPath (created if absent, torn tail tolerated), and leaves the WAL
// attached so every subsequent mutation is logged and fsynced before it
// is acknowledged. met may be nil to run without instrumentation.
func Recover(snapshotPath, walPath string, met *Metrics) (*Repository, RecoveryStats, error) {
	var stats RecoveryStats
	r, err := Open(snapshotPath)
	switch {
	case err == nil:
		stats.SnapshotLoaded = true
	case errors.Is(err, fs.ErrNotExist):
		r = New()
	default:
		return nil, stats, err
	}
	r.met = met

	w, err := openWAL(walPath, func(d *decoded) error {
		if d.rec.Lsn <= r.lsn {
			stats.Skipped++ // snapshot already covers it
			return nil
		}
		if err := r.applyRecord(d); err != nil {
			return err
		}
		r.lsn = d.rec.Lsn
		stats.Replayed++
		return nil
	}, met, &stats)
	if err != nil {
		return nil, stats, err
	}
	r.wal = w
	if met != nil {
		met.Replayed.Add(uint64(stats.Replayed))
		met.SizeBytes.Set(w.size)
		if stats.TornTail {
			met.RecoveriesTornTail.Inc()
		} else {
			met.RecoveriesClean.Inc()
		}
	}
	return r, stats, nil
}

// applyRecord installs one decoded record — replayed from the WAL or a
// snapshot, or streamed from a primary. Callers either own the repository
// exclusively (recovery, snapshot load) or hold the write lock.
func (r *Repository) applyRecord(d *decoded) error {
	switch rec := &d.rec; rec.Op {
	case opPut:
		e, id := rec.Entry, d.id
		e.print = d.print
		if old, replacing := r.entries[id]; replacing {
			delete(r.byPrint, old.print)
		} else {
			r.order = append(r.order, id)
			r.added(id)
		}
		r.entries[id] = e
		r.byPrint[e.print] = id
		delete(r.deleted, id)
		r.seq = rec.Seq
		r.nextIDs[rec.Tenant] = rec.NextID
	case opDelete:
		e, ok := r.entries[rec.ID]
		if !ok {
			return fmt.Errorf("repository: wal delete of unknown %q", rec.ID)
		}
		delete(r.entries, rec.ID)
		r.removed(rec.ID)
		delete(r.byPrint, e.print)
		for i, oid := range r.order {
			if oid == rec.ID {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
		r.seq = rec.Seq
		r.deleted[rec.ID] = rec.Seq
	case opTag:
		e, ok := r.entries[rec.ID]
		if !ok {
			return fmt.Errorf("repository: wal tag of unknown %q", rec.ID)
		}
		e.Tags = rec.Tags
		e.Seq = rec.Seq
		r.seq = rec.Seq
	case opComment:
		e, ok := r.entries[rec.ID]
		if !ok {
			return fmt.Errorf("repository: wal comment on unknown %q", rec.ID)
		}
		if rec.Comment == nil {
			return fmt.Errorf("repository: wal comment record without comment")
		}
		e.Comments = append(e.Comments, *rec.Comment)
		e.Seq = rec.Seq
		r.seq = rec.Seq
	case opUsage:
		// Older logs may hold deltas for IDs a later record deleted;
		// they target nothing, as the counters died with the entry.
		for id, u := range rec.Usage {
			if e, ok := r.entries[id]; ok {
				e.Usage.Selections += u.Selections
			}
		}
	case opKeyCreate:
		if rec.Key == nil {
			return fmt.Errorf("repository: wal key record without key")
		}
		r.keys[rec.ID] = rec.Key
	case opKeyRevoke:
		delete(r.keys, rec.ID)
	case opFeedback:
		// Relevance-loop records replay without touching r.seq: they are
		// not schema mutations and must not trigger reindexing.
		if len(rec.Feedback) == 0 {
			return fmt.Errorf("repository: wal feedback record without events")
		}
		r.feedback = append(r.feedback, rec.Feedback...)
		r.trimFeedbackLocked()
	case opWeightSet:
		ws := rec.WeightSet
		if ws == nil || len(ws.Weights) == 0 {
			return fmt.Errorf("repository: wal weight-set record without weights")
		}
		if ws.Version <= r.weightVersion {
			return fmt.Errorf("repository: wal weight-set version %d not above %d", ws.Version, r.weightVersion)
		}
		r.weightVersion = ws.Version
		r.weightSets = append(r.weightSets, ws)
	case opWeightPromote:
		if rec.WeightVersion == 0 {
			return fmt.Errorf("repository: wal weight-promote record without version")
		}
		r.promotedVersion = rec.WeightVersion
	default:
		return fmt.Errorf("repository: wal record with unknown op %q", rec.Op)
	}
	return nil
}

// logRecord marshals rec, assigns it the next LSN and appends it to the
// WAL (fsynced). No-op without an attached WAL. Callers hold the write
// lock and must apply the mutation only after logRecord returns nil —
// nothing unlogged may become visible. Every error it returns wraps
// ErrUnavailable.
func (r *Repository) logRecord(rec *walRecord) error {
	if r.wal == nil {
		return nil
	}
	rec.Lsn = r.lsn + 1
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: wal encode: %w", ErrUnavailable, err)
	}
	if err := r.wal.append(append(payload, '\n')); err != nil {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	r.lsn = rec.Lsn
	r.retainLocked(rec.Lsn, payload)
	return nil
}

// Snapshot durably persists the full repository to path (fsynced temp
// file, rename, parent-directory fsync), then truncates the WAL — its
// records are all covered by the snapshot — and compacts the deleted map
// by dropping tombstones with sequence <= compactBefore. Pass the change
// feed cursor of the slowest persisted consumer (the engine's saved index
// cursor); pass 0 to keep every tombstone. Mutations block for the
// duration, which keeps the snapshot and the WAL truncation one atomic
// transition.
func (r *Repository) Snapshot(path string, compactBefore uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	for id, dseq := range r.deleted {
		if dseq <= compactBefore {
			delete(r.deleted, id)
		}
	}
	if err := r.saveLocked(path); err != nil {
		return err
	}
	if r.wal != nil {
		if err := r.wal.reset(); err != nil {
			return err
		}
	}
	if r.met != nil {
		r.met.Snapshots.Inc()
		r.met.SnapshotSeconds.ObserveDuration(time.Since(start))
	}
	return nil
}

// Close closes the WAL. The repository remains usable in memory but no
// longer logs. No-op without an attached WAL.
func (r *Repository) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wal == nil {
		return nil
	}
	err := r.wal.close()
	r.wal = nil
	return err
}
