package match

import (
	"sort"

	"schemr/internal/model"
	"schemr/internal/query"
)

// Profile holds every query-independent artifact the fine-grained phases
// derive from one candidate schema: its element list, the IDs of its
// distinct names in the name dictionary (gram vectors live there, shared
// by every schema that uses the name), element names and context
// neighbor-term sets as indices into that ID list, coarse type classes,
// and the entity graph with the BFS distance map of every anchor.
// Every subsequent search reuses it, which is what makes the engine's
// profile cache pay off.
//
// A Profile is immutable after construction and safe for concurrent use. It
// is built from a specific *model.Schema value and remembers it (Schema);
// callers cache profiles keyed by schema identity so a replaced schema is
// never scored through a stale profile.
type Profile struct {
	schema *model.Schema
	elems  []model.Element
	class  []typeClass // coarse type classes, aligned with elems

	names    []nameID  // the schema's distinct names (elements and context terms)
	elemName []int32   // index into names of each element's name, aligned with elems
	ctx      [][]int32 // neighbor-term sets as indices into names, aligned with elems

	graph   *model.EntityGraph
	anchors []string                  // sorted entity names
	dists   map[string]map[string]int // anchor → entity → FK hops
}

// NewProfile precomputes the match profile of a schema, interning its names
// in the name dictionary.
func NewProfile(s *model.Schema) *Profile {
	elems := s.Elements()
	p := &Profile{
		schema: s,
		elems:  elems,
		class:  schemaTypeClasses(elems),
		graph:  model.NewEntityGraph(s),
	}
	var ix nameIndex
	p.elemName, p.ctx = ix.addSchema(p.graph, s, elems)
	p.names = make([]nameID, len(ix.norms))
	for i, n := range ix.norms {
		p.names[i] = names.intern(n)
	}

	p.anchors = make([]string, 0, len(s.Entities))
	for _, e := range s.Entities {
		p.anchors = append(p.anchors, e.Name)
	}
	sort.Strings(p.anchors)
	p.dists = p.graph.AllDistances()
	return p
}

// Schema returns the exact schema value the profile was built from; caches
// compare it against the current repository value to detect staleness.
func (p *Profile) Schema() *model.Schema { return p.schema }

// Elements returns the cached s.Elements() slice. Callers must not mutate it.
func (p *Profile) Elements() []model.Element { return p.elems }

// Graph returns the cached entity graph.
func (p *Profile) Graph() *model.EntityGraph { return p.graph }

// Anchors returns the schema's entity names in sorted order — the anchor
// scan order of the tightness measurement. Callers must not mutate it.
func (p *Profile) Anchors() []string { return p.anchors }

// AnchorDistances returns the precomputed FK hop distances from the given
// anchor entity (nil for unknown anchors), keyed by entity name with
// unreachable entities absent — the same contract as
// model.EntityGraph.DistancesFrom. Callers must not mutate the map.
func (p *Profile) AnchorDistances(anchor string) map[string]int { return p.dists[anchor] }

// QueryArtifacts holds the query-side computations shared across every
// candidate of one search: elements, the entries of the query's distinct
// names, element names and per-fragment context sets as indices into them,
// type classes, and the memo of name-pair similarities. Built
// once per search and safe for concurrent use by the parallel match workers;
// only the memo changes afterwards.
type QueryArtifacts struct {
	query *query.Query
	elems []query.Element
	class []typeClass

	// names holds one entry per distinct query-side name: the interned one
	// when the corpus knows the name, a throwaway otherwise.
	names    []*nameEntry
	elemName []int32   // index into names, aligned with elems
	ctx      [][]int32 // context term sets as indices into names; nil for keywords

	sims pairMemo
}

// NewQueryArtifacts precomputes the query side of the matcher ensemble.
func NewQueryArtifacts(q *query.Query) *QueryArtifacts {
	elems := q.Elements()
	qa := &QueryArtifacts{
		query: q,
		elems: elems,
		class: queryTypeClasses(q, elems),
	}
	var ix nameIndex
	qa.elemName, qa.ctx = ix.addQuery(q, elems)
	qa.names = make([]*nameEntry, len(ix.norms))
	for i, n := range ix.norms {
		e := names.lookup(n)
		if e == nil {
			e = newNameEntry(n, defaultMaxGram)
		}
		qa.names[i] = e
	}
	return qa
}

// MemoStats reports how many name-pair lookups of this search the memo
// answered (hits) and how many it had to score (misses).
func (qa *QueryArtifacts) MemoStats() (hits, misses uint64) {
	return qa.sims.hits.Load(), qa.sims.misses.Load()
}

// Query returns the query the artifacts were built from.
func (qa *QueryArtifacts) Query() *query.Query { return qa.query }

// Elements returns the cached q.Elements() slice. Callers must not mutate it.
func (qa *QueryArtifacts) Elements() []query.Element { return qa.elems }
