package core

import (
	"fmt"
	"sync"
	"time"

	"schemr/internal/match"
	"schemr/internal/obs"
	"schemr/internal/repository"
	"schemr/internal/tightness"
)

// profileCache holds, per schema ID, the cache entry of one schema
// version: its match profile plus everything a ranked row needs, so a warm
// search neither fetches nor decodes a schema. Entries are immutable (a
// profile fills its lazy facts once, safely); the cache is safe for
// concurrent use by the parallel match workers.
//
// Staleness is impossible by construction: an entry is keyed by the
// schema's (ID, put seq), and the repository gives every put a fresh
// sequence number, so the pair names one exact version of the schema's
// bytes. get reads the current seq and the bytes a miss decodes in one
// repository critical section (Repository.Stored), builds from exactly
// those bytes, and returns a cached entry only when its seq equals the
// one just read. The change-feed eviction in Sync/Reindex is therefore a
// memory-hygiene mechanism — it drops superseded and deleted entries —
// not the correctness mechanism, so a search racing a Sync can never
// score a new schema through an old profile, nor show an old version's
// header or concepts, no matter how the operations interleave.
type profileCache struct {
	mu sync.RWMutex
	m  map[string]*cached

	// Observability instruments (nil-safe; nil when metrics are disabled).
	// hits/misses measure the lookup economics on the search path; evicts
	// counts change-feed invalidations and resets; build is the latency of
	// a miss — decoding the schema and building its entry. names mirrors
	// the size of the name dictionary the profiles share;
	// memoHits/memoMisses count the name-pair lookups searches' memos
	// answered or had to score.
	hits       *obs.Counter
	misses     *obs.Counter
	evicts     *obs.Counter
	size       *obs.Gauge
	build      *obs.Histogram
	names      *obs.Gauge
	memoHits   *obs.Counter
	memoMisses *obs.Counter
}

// cached is the cache entry of one schema version: the row header (whose
// Seq is the version) and the match profile, which also holds the
// elements' codebook concepts a served row shows.
type cached struct {
	head    repository.Header
	profile *match.Profile
}

// newCached builds the entry of the schema version (head, raw).
func newCached(head repository.Header, raw []byte) *cached {
	s, err := repository.DecodeSchema(raw)
	if err != nil || s == nil {
		panic(fmt.Sprintf("core: stored schema does not decode: %v", err))
	}
	return &cached{head: head, profile: match.NewProfile(s)}
}

// conceptsOf returns the concepts of each matched element, aligned with
// matched ("" for none), or nil when none has any.
func (c *cached) conceptsOf(matched []tightness.ElementScore) []string {
	var out []string
	for i, el := range matched {
		if names := c.profile.ConceptsAt(el.Element); names != "" {
			if out == nil {
				out = make([]string, len(matched))
			}
			out[i] = names
		}
	}
	return out
}

func newProfileCache() *profileCache {
	return &profileCache{m: make(map[string]*cached)}
}

// instrument registers the cache's metric families on reg. Called once at
// engine construction, before any concurrent use.
func (c *profileCache) instrument(reg *obs.Registry) {
	c.hits = reg.Counter("schemr_profile_cache_hits_total", "Match-profile cache lookups served from cache.", nil)
	c.misses = reg.Counter("schemr_profile_cache_misses_total", "Match-profile cache lookups that built a profile.", nil)
	c.evicts = reg.Counter("schemr_profile_cache_evictions_total", "Match profiles evicted via the change feed or reset.", nil)
	c.size = reg.Gauge("schemr_profile_cache_size", "Match profiles currently cached.", nil)
	c.build = reg.Histogram("schemr_profile_build_seconds", "Latency of building one match profile (cache-miss cost).", nil, nil)
	c.names = reg.Gauge("schemr_match_names_interned", "Distinct normalized names in the match name dictionary (process-wide, append-only).", nil)
	c.memoHits = reg.Counter("schemr_match_memo_hits_total", "Name-pair lookups answered by a search's similarity memo.", nil)
	c.memoMisses = reg.Counter("schemr_match_memo_misses_total", "Name-pair lookups a search's similarity memo had to score.", nil)
}

// observeMemo publishes one finished search's memo counts.
func (c *profileCache) observeMemo(qa *match.QueryArtifacts) {
	hits, misses := qa.MemoStats()
	c.memoHits.Add(hits)
	c.memoMisses.Add(misses)
}

// get returns the entry of id's current version, building and caching one
// when the cached entry is missing or holds another version. It returns
// nil when id is not stored.
func (c *profileCache) get(repo *repository.Repository, id string) *cached {
	head, raw, ok := repo.Stored(id)
	if !ok {
		return nil
	}
	c.mu.RLock()
	p := c.m[id]
	c.mu.RUnlock()
	if p != nil && p.head.Seq == head.Seq {
		c.hits.Inc()
		return p
	}
	c.misses.Inc()
	if c.build != nil {
		start := time.Now()
		p = newCached(head, raw)
		c.build.ObserveDuration(time.Since(start))
	} else {
		p = newCached(head, raw)
	}
	c.mu.Lock()
	// Keep a racing writer's entry if it is for the same version; both
	// are equivalent, but not replacing it lets concurrent readers of the
	// published entry keep hitting one instance.
	if cur := c.m[id]; cur == nil || cur.head.Seq != head.Seq {
		c.m[id] = p
	} else {
		p = cur
	}
	c.size.Set(int64(len(c.m)))
	c.mu.Unlock()
	c.names.Set(int64(match.InternedNames()))
	return p
}

// drop evicts the given IDs (missing IDs are ignored).
func (c *profileCache) drop(ids ...string) {
	if len(ids) == 0 {
		return
	}
	c.mu.Lock()
	for _, id := range ids {
		if _, ok := c.m[id]; ok {
			c.evicts.Inc()
			delete(c.m, id)
		}
	}
	c.size.Set(int64(len(c.m)))
	c.mu.Unlock()
}

// reset empties the cache.
func (c *profileCache) reset() {
	c.mu.Lock()
	c.evicts.Add(uint64(len(c.m)))
	c.m = make(map[string]*cached)
	c.size.Set(0)
	c.mu.Unlock()
}

// count returns the number of cached profiles.
func (c *profileCache) count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
