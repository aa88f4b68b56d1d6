// Package repository implements Schemr's schema store — the role the
// open-source Yggdrasil repository plays in the paper's architecture. It
// holds the schema corpus with provenance and community metadata (tags,
// comments, ratings — the collaboration features the paper plans for),
// is durable through a write-ahead log and compacted-log snapshots
// (durable.go, wal.go, snapshot.go), and exposes a change feed so the
// offline text indexer can refresh the document index "at scheduled
// intervals" without rescanning the whole corpus.
package repository

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"schemr/internal/model"
	"schemr/internal/tenant"
)

// Comment is community feedback attached to a schema: the paper's planned
// "mechanisms for users to leave ratings and comments on schemas".
type Comment struct {
	Author string    `json:"author"`
	Text   string    `json:"text"`
	Rating int       `json:"rating,omitempty"` // 0 = no rating, else 1..5
	At     time.Time `json:"at"`
}

// Usage holds a schema's usage statistics — the collaboration feature
// the paper plans: how often a user drilled into the schema from a result
// list. The popularity boost reads it.
type Usage struct {
	Selections int `json:"selections,omitempty"`
}

// Entry is one stored schema plus its repository metadata, as Entry
// returns it: the schema decoded into a private copy.
type Entry struct {
	Schema   *model.Schema `json:"schema"`
	Tags     []string      `json:"tags,omitempty"`
	Comments []Comment     `json:"comments,omitempty"`
	Usage    Usage         `json:"usage,omitzero"` // go1.24+ omits zero counters; older toolchains write {}
	AddedAt  time.Time     `json:"addedAt"`
	Seq      uint64        `json:"seq"` // change-feed sequence of last modification
}

// Header is what a result row shows of a stored schema without decoding
// it, read once when the schema is stored.
type Header struct {
	Name        string
	Description string
	Entities    int
	Attributes  int
	// Seq is the change-feed sequence of the put that stored the schema.
	// Every put takes a fresh sequence number, so (ID, Seq) names one
	// schema version; tags and comments leave it alone.
	Seq uint64
}

func headerOf(s *model.Schema, seq uint64) Header {
	return Header{Name: s.Name, Description: s.Description,
		Entities: s.NumEntities(), Attributes: s.NumAttributes(), Seq: seq}
}

// entry is one stored schema: the schema as its encoded JSON — the bytes
// json.Marshal writes for it, exactly as its put record carries them —
// plus repository metadata. Its exported fields are the entry of a put
// record in Entry's field order, so a record marshals to the same bytes
// whether it holds the bytes or the graph.
type entry struct {
	Schema   json.RawMessage `json:"schema"`
	Tags     []string        `json:"tags,omitempty"`
	Comments []Comment       `json:"comments,omitempty"`
	Usage    Usage           `json:"usage,omitzero"`
	AddedAt  time.Time       `json:"addedAt"`
	Seq      uint64          `json:"seq"`

	head  Header // derived when the entry is stored
	print string // the byPrint key of the schema's fingerprint
}

// Repository is a concurrent-safe schema store. The zero value is not
// usable; construct with New, Open or Recover. A repository from Recover
// is durable: every mutation is written to a write-ahead log and fsynced
// before it is acknowledged (see durable.go).
type Repository struct {
	mu sync.RWMutex
	state

	// Durability (nil without Recover): the attached WAL and its metrics.
	wal *wal
	met *Metrics

	// Replication: the ring of recently acknowledged WAL records a
	// replica can stream (see replication.go). retainCap 0 means the
	// default replicationRetention; tests shrink it.
	recent    []retainedRecord
	retainCap int
}

// state is everything a snapshot holds: what a load builds and what
// InstallState replaces whole.
type state struct {
	entries map[string]*entry
	counts  map[string]int       // live entries per tenant, by tenant.Owner of the id
	order   []string             // insertion order of live ids
	byPrint map[string]string    // tenant-scoped fingerprint → id, for dedupe
	nextIDs map[string]int       // per-tenant ID counter ("" = default tenant)
	seq     uint64               // change-feed sequence
	lsn     uint64               // log sequence number of the last record written or replayed
	deleted map[string]uint64    // id → seq of deletion
	keys    map[string]*KeyEntry // API-key hash → tenant binding (see keys.go)

	// Relevance loop (see feedback.go): the retained feedback-event
	// window, the stored weight sets with their monotonic version counter,
	// and which version is promoted to serving (0 = none).
	feedback        []FeedbackEvent
	weightSets      []*WeightSet
	weightVersion   uint64
	promotedVersion uint64
}

// now is the clock puts and comments read.
var now = time.Now

// New returns an empty repository.
func New() *Repository {
	return &Repository{state: state{
		entries: make(map[string]*entry),
		counts:  make(map[string]int),
		byPrint: make(map[string]string),
		nextIDs: make(map[string]int),
		deleted: make(map[string]uint64),
		keys:    make(map[string]*KeyEntry),
	}}
}

// printKey scopes a schema fingerprint to tenant tn, so structurally
// identical schemas under two tenants dedupe independently. A fingerprint
// has no NUL, so the default tenant's key is the fingerprint itself.
func printKey(tn, fingerprint string) string {
	if tn != "" {
		return tn + "\x00" + fingerprint
	}
	return fingerprint
}

// Len returns the number of stored schemas across all tenants.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// LenTenant returns the number of schemas in one tenant's namespace.
func (r *Repository) LenTenant(tn string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counts[tn]
}

// added and removed keep the per-tenant counts in step with entries: every
// path that adds a live entry calls added, every one that deletes it
// calls removed.
func (st *state) added(id string) { st.counts[tenant.Owner(id)]++ }

func (st *state) removed(id string) {
	tn := tenant.Owner(id)
	if st.counts[tn]--; st.counts[tn] == 0 {
		delete(st.counts, tn)
	}
}

// Seq returns the current change-feed sequence number. It increases on
// every mutation; a reader that has processed everything up to Seq() is up
// to date.
func (r *Repository) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// Put stores a schema in the default tenant's namespace and returns its
// ID. A schema with an empty ID is assigned one; putting an existing ID
// replaces that schema. The schema must validate. The repository stores
// its encoding, so later changes to s do not reach the stored schema; Put
// only fills in s.ID.
func (r *Repository) Put(s *model.Schema) (string, error) {
	return r.PutTenant("", s)
}

// PutTenant is Put within a tenant namespace: a fresh schema is assigned
// the tenant's next qualified ID ("acme/s000001"; tenants count
// independently, so the same bare ID under two tenants never collides),
// and an explicit ID must already belong to the tenant.
func (r *Repository) PutTenant(tn string, s *model.Schema) (string, error) {
	if s == nil {
		return "", fmt.Errorf("repository: nil schema")
	}
	if err := s.Validate(); err != nil {
		return "", fmt.Errorf("repository: %w", err)
	}
	if s.ID != "" && tenant.Owner(s.ID) != tn {
		return "", fmt.Errorf("repository: schema id %q is outside tenant %q", s.ID, tn)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.putLocked(tn, s)
}

// putLocked is PutTenant under an already-held write lock. The WAL record
// is written (and fsynced) before any in-memory state changes: a put that
// fails to log is not applied and not acknowledged.
func (r *Repository) putLocked(tn string, s *model.Schema) (string, error) {
	nextID := r.nextIDs[tn]
	if s.ID == "" {
		nextID++
		s.ID = tenant.Qualify(tn, fmt.Sprintf("s%06d", nextID))
		for r.entries[s.ID] != nil { // survive collisions with loaded data
			nextID++
			s.ID = tenant.Qualify(tn, fmt.Sprintf("s%06d", nextID))
		}
	}
	seq := r.seq + 1
	raw, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("repository: encode schema: %w", err)
	}
	old, replacing := r.entries[s.ID]
	e := &entry{Schema: raw, AddedAt: now().UTC(), Seq: seq,
		head: headerOf(s, seq), print: printKey(tenant.Owner(s.ID), s.Fingerprint())}
	if replacing {
		e.Tags = old.Tags
		e.Comments = old.Comments
		e.Usage = old.Usage
		e.AddedAt = old.AddedAt
	}
	if err := r.logRecord(&walRecord{Op: opPut, Seq: seq, Entry: e, NextID: nextID, Tenant: tn}); err != nil {
		return "", err
	}
	r.nextIDs[tn] = nextID
	r.seq = seq
	if replacing {
		delete(r.byPrint, old.print)
	} else {
		r.order = append(r.order, s.ID)
		r.added(s.ID)
	}
	r.entries[s.ID] = e
	r.byPrint[e.print] = s.ID
	delete(r.deleted, s.ID)
	return s.ID, nil
}

// PutDedup stores a schema in the default namespace unless a structurally
// identical one (same fingerprint) already exists there, in which case it
// returns the existing ID and dup=true. The corpus import pipeline uses
// this to drop duplicates. Check and insert happen under one write lock,
// so concurrent PutDedup calls with equal fingerprints yield exactly one
// stored schema.
func (r *Repository) PutDedup(s *model.Schema) (id string, dup bool, err error) {
	return r.PutDedupTenant("", s)
}

// PutDedupTenant is PutDedup scoped to one tenant's namespace:
// fingerprints dedupe per tenant, so two tenants may each store the same
// schema.
func (r *Repository) PutDedupTenant(tn string, s *model.Schema) (id string, dup bool, err error) {
	if s == nil {
		return "", false, fmt.Errorf("repository: nil schema")
	}
	if err := s.Validate(); err != nil {
		return "", false, fmt.Errorf("repository: %w", err)
	}
	fp := printKey(tn, s.Fingerprint())
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byPrint[fp]; ok {
		return existing, true, nil
	}
	id, err = r.putLocked(tn, s)
	return id, false, err
}

// Get returns the schema with the given ID, or nil: a freshly decoded
// copy the caller owns.
func (r *Repository) Get(id string) *model.Schema {
	r.mu.RLock()
	e, ok := r.entries[id]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	return mustDecode(e.Schema)
}

// Stored returns the header and the encoded bytes of id's schema, read in
// one critical section, so the bytes are the version the header's Seq
// names. The bytes are shared and must not be modified; DecodeSchema
// turns them into a graph.
func (r *Repository) Stored(id string) (Header, []byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[id]; ok {
		return e.head, e.Schema, true
	}
	return Header{}, nil, false
}

// Entry returns a copy of the full entry (schema + metadata) for id, or
// nil. The metadata is copied under the read lock, because the usage
// counter, tags and comments change in place under the write lock; a
// shallow copy is enough, since tags are replaced whole and comments only
// appended. The schema is decoded into a private copy.
func (r *Repository) Entry(id string) *Entry {
	r.mu.RLock()
	e, ok := r.entries[id]
	var c entry
	if ok {
		c = *e
	}
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	return &Entry{Schema: mustDecode(c.Schema), Tags: c.Tags, Comments: c.Comments,
		Usage: c.Usage, AddedAt: c.AddedAt, Seq: c.Seq}
}

// Delete removes a schema. It reports whether the schema existed; on a
// durable repository a delete that cannot be logged is not applied and
// returns the error.
func (r *Repository) Delete(id string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return false, nil
	}
	seq := r.seq + 1
	if err := r.logRecord(&walRecord{Op: opDelete, Seq: seq, ID: id}); err != nil {
		return false, err
	}
	delete(r.entries, id)
	r.removed(id)
	delete(r.byPrint, e.print)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.seq = seq
	r.deleted[id] = seq
	return true, nil
}

// IDs returns all schema IDs (every tenant) in insertion order.
func (r *Repository) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// IDsTenant returns one tenant's schema IDs (qualified) in insertion
// order.
func (r *Repository) IDsTenant(tn string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, id := range r.order {
		if tenant.Owner(id) == tn {
			out = append(out, id)
		}
	}
	return out
}

// All returns all schemas (every tenant) in insertion order, each a
// freshly decoded copy.
func (r *Repository) All() []*model.Schema {
	return r.decodeAll(func(string) bool { return true })
}

// AllTenant returns one tenant's schemas in insertion order, each a
// freshly decoded copy.
func (r *Repository) AllTenant(tn string) []*model.Schema {
	return r.decodeAll(func(id string) bool { return tenant.Owner(id) == tn })
}

// decodeAll decodes the schemas whose IDs keep accepts, in insertion
// order, outside the lock: the bytes are never modified, only replaced.
func (r *Repository) decodeAll(keep func(id string) bool) []*model.Schema {
	r.mu.RLock()
	var raws []json.RawMessage
	for _, id := range r.order {
		if keep(id) {
			raws = append(raws, r.entries[id].Schema)
		}
	}
	r.mu.RUnlock()
	out := make([]*model.Schema, len(raws))
	for i, raw := range raws {
		out[i] = mustDecode(raw)
	}
	return out
}

// Tag adds tags to a schema (deduplicated, sorted). It reports whether the
// schema exists; a tag that cannot be logged is not applied and returns
// the error.
func (r *Repository) Tag(id string, tags ...string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return false, nil
	}
	set := make(map[string]bool, len(e.Tags)+len(tags))
	for _, t := range e.Tags {
		set[t] = true
	}
	for _, t := range tags {
		if t != "" {
			set[t] = true
		}
	}
	newTags := make([]string, 0, len(set))
	for t := range set {
		newTags = append(newTags, t)
	}
	sort.Strings(newTags)
	seq := r.seq + 1
	if err := r.logRecord(&walRecord{Op: opTag, Seq: seq, ID: id, Tags: newTags}); err != nil {
		return false, err
	}
	e.Tags = newTags
	r.seq = seq
	e.Seq = seq
	return true, nil
}

// ByTag returns the IDs of schemas carrying the tag (every tenant), in
// insertion order.
func (r *Repository) ByTag(tag string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, id := range r.order {
		for _, t := range r.entries[id].Tags {
			if t == tag {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// ByTagTenant is ByTag within one tenant's namespace.
func (r *Repository) ByTagTenant(tn, tag string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, id := range r.order {
		if tenant.Owner(id) != tn {
			continue
		}
		for _, t := range r.entries[id].Tags {
			if t == tag {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// AddComment attaches a comment (optionally with a 1–5 rating) to a schema.
func (r *Repository) AddComment(id string, c Comment) error {
	if c.Rating < 0 || c.Rating > 5 {
		return fmt.Errorf("repository: rating %d out of range 0..5", c.Rating)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return fmt.Errorf("repository: no schema %q", id)
	}
	if c.At.IsZero() {
		c.At = now().UTC()
	}
	seq := r.seq + 1
	if err := r.logRecord(&walRecord{Op: opComment, Seq: seq, ID: id, Comment: &c}); err != nil {
		return err
	}
	e.Comments = append(e.Comments, c)
	r.seq = seq
	e.Seq = seq
	return nil
}

// Rating returns the average rating of a schema and the number of ratings;
// zero-rating comments don't count.
func (r *Repository) Rating(id string) (avg float64, n int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return 0, 0
	}
	sum := 0
	for _, c := range e.Comments {
		if c.Rating > 0 {
			sum += c.Rating
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

// RecordSelection bumps the selection (click-through) counter. It reports
// whether the schema exists; a selection that cannot be logged is not
// counted and returns the error. Usage does not advance the change feed:
// the document index carries no usage, so re-indexing for it would be
// churn without benefit.
func (r *Repository) RecordSelection(id string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return false, nil
	}
	if err := r.logRecord(&walRecord{Op: opUsage, Usage: map[string]Usage{id: {Selections: 1}}}); err != nil {
		return false, err
	}
	e.Usage.Selections++
	return true, nil
}

// Usage returns a schema's interaction counters (zero for unknown IDs).
func (r *Repository) Usage(id string) Usage {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[id]; ok {
		return e.Usage
	}
	return Usage{}
}

// Changes describes what happened after a given change-feed sequence.
type Changes struct {
	// Updated holds IDs added or modified since the cursor, in seq order.
	Updated []string
	// Deleted holds IDs removed since the cursor.
	Deleted []string
	// Seq is the new cursor.
	Seq uint64
}

// ChangedSince returns the IDs touched after cursor seq. The offline
// indexer runs this on a schedule and applies the delta to the document
// index.
func (r *Repository) ChangedSince(seq uint64) Changes {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ch := Changes{Seq: r.seq}
	type upd struct {
		id  string
		seq uint64
	}
	var ups []upd
	for id, e := range r.entries {
		if e.Seq > seq {
			ups = append(ups, upd{id, e.Seq})
		}
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].seq < ups[j].seq })
	for _, u := range ups {
		ch.Updated = append(ch.Updated, u.id)
	}
	for id, dseq := range r.deleted {
		if dseq > seq {
			ch.Deleted = append(ch.Deleted, id)
		}
	}
	sort.Strings(ch.Deleted)
	return ch
}
