package core

import (
	"sync"
	"time"

	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/obs"
)

// profileCache holds one precomputed match.Profile per schema ID. Profiles
// are immutable; the cache is safe for concurrent use by the parallel match
// workers.
//
// Staleness is impossible by construction: every profile remembers the exact
// *model.Schema value it was built from, the repository replaces that value
// on any schema update, and get only returns a cached profile whose schema
// is identical (pointer equality) to the value the caller just fetched from
// the repository. The change-feed eviction in Sync/Reindex is therefore a
// memory-hygiene mechanism — it drops superseded and deleted entries — not
// the correctness mechanism, so a search racing a Sync can never score a new
// schema through an old profile no matter how the operations interleave.
type profileCache struct {
	mu sync.RWMutex
	m  map[string]*match.Profile

	// Observability instruments (nil-safe; nil when metrics are disabled).
	// hits/misses measure the lookup economics on the search path; evicts
	// counts change-feed invalidations and resets; build is the latency of
	// match.NewProfile, the one-time cost a miss pays. names mirrors the
	// size of the name dictionary the profiles share; memoHits/memoMisses
	// count the name-pair lookups searches' memos answered or had to score.
	hits       *obs.Counter
	misses     *obs.Counter
	evicts     *obs.Counter
	size       *obs.Gauge
	build      *obs.Histogram
	names      *obs.Gauge
	memoHits   *obs.Counter
	memoMisses *obs.Counter
}

func newProfileCache() *profileCache {
	return &profileCache{m: make(map[string]*match.Profile)}
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

// get returns the profile for (id, s), building and caching one when the
// cached entry is missing or was built from a different schema value.
func (c *profileCache) get(id string, s *model.Schema) *match.Profile {
	c.mu.RLock()
	p := c.m[id]
	c.mu.RUnlock()
	if p != nil && p.Schema() == s {
		c.hits.Inc()
		return p
	}
	c.misses.Inc()
	if c.build != nil {
		start := time.Now()
		p = match.NewProfile(s)
		c.build.ObserveDuration(time.Since(start))
	} else {
		p = match.NewProfile(s)
	}
	c.mu.Lock()
	// Keep a racing writer's profile if it is for the same schema value;
	// both are equivalent, but not replacing it lets concurrent readers of
	// the published entry keep hitting one instance.
	if cur := c.m[id]; cur == nil || cur.Schema() != s {
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
	c.m = make(map[string]*match.Profile)
	c.size.Set(0)
	c.mu.Unlock()
}

// count returns the number of cached profiles.
func (c *profileCache) count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
