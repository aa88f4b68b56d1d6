package match

import (
	"slices"
	"sort"
	"sync"

	"schemr/internal/model"
	"schemr/internal/query"
)

// Profile holds every query-independent artifact the fine-grained phases
// derive from one candidate schema: its element list, the IDs of its
// distinct names in the name dictionary (gram vectors live there, shared
// by every schema that uses the name), element names and context
// neighbor-term sets as indices into that ID list (an attribute scored
// from its entity's frame keeps no set of its own; see Frames in
// context.go), coarse type classes, and the foreign-key hop distance
// between every pair of entities. Every subsequent search reuses it,
// which is what makes the engine's profile cache pay off.
//
// Every matcher reads the candidate through its profile; none reads the
// schema itself.
//
// The elements' codebook concepts and synonym lookup words are derived
// on first use, once each (concept.go, synonym.go), and kept per element,
// not per name ID: they come from the raw name, which the dictionary's
// normalized key loses (birth_date and birthdate share it, not words).
//
// A Profile is immutable after construction but for those lazy facts,
// and safe for concurrent use. It is flat — slices of small integers
// beside the element list — and keeps neither the schema graph nor its
// entity graph, so a cache of profiles holds little beyond the element
// names. Callers cache profiles keyed by schema version, so a replaced
// schema is never scored through a stale profile.
type Profile struct {
	elems []model.Element
	class []typeClass // coarse type classes, aligned with elems

	names    []nameID // the schema's distinct names (elements and context terms)
	elemName []int32  // index into names of each element's name, aligned with elems
	ctx      termSets // context sets as indices into names, aligned with elems; framed attributes keep none

	// FK hop distances. Entities are anchors, in sorted name order; the
	// hop matrix holds one square block per connected component of the
	// entity graph, so two anchors in different components (unreachable
	// from each other) cost nothing.
	anchors    []string   // sorted entity names
	elemAnchor []int32    // anchor ordinal of each element's entity, aligned with elems
	hopAt      []hopBlock // where each anchor's row sits in hops, by anchor ordinal
	hops       []uint8    // hop counts, saturated at MaxHops

	conceptsOnce sync.Once
	wordsOnce    sync.Once
	concepts     []conceptEntry // ascending by element; elements without concepts are absent
	words        *[][]string    // synonym lookup words, aligned with elems; a pointer keeps unfilled profiles a size class smaller
}

// hopBlock places one anchor in the hop matrix: its component's block
// starts at base and is size×size, and the anchor is row and column pos.
type hopBlock struct{ base, size, pos int32 }

// MaxHops is where a profile's hop distances saturate: a distance of
// MaxHops means MaxHops or more.
const MaxHops = 255

// NewProfile precomputes the match profile of a schema, interning its
// names in the name dictionary. The profile does not keep s.
func NewProfile(s *model.Schema) *Profile {
	elems := s.Elements()
	g := model.NewEntityGraph(s)
	p := &Profile{
		elems: elems,
		class: schemaTypeClasses(elems),
	}
	var ix nameIndex
	p.elemName, p.ctx = ix.addSchema(g, s, elems)
	p.names = make([]nameID, len(ix.norms))
	for i, n := range ix.norms {
		p.names[i] = names.intern(n)
	}
	p.hopDistances(s, g)
	return p
}

// hopDistances fills the anchor list and the hop matrix: a BFS from every
// entity over its own component.
func (p *Profile) hopDistances(s *model.Schema, g *model.EntityGraph) {
	n := len(s.Entities)
	order := make([]int, n) // entity indices in anchor order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.Entities[order[a]].Name < s.Entities[order[b]].Name })
	ordinal := make([]int32, n) // anchor ordinal of each entity
	p.anchors = make([]string, n)
	for k, i := range order {
		p.anchors[k] = s.Entities[i].Name
		ordinal[i] = int32(k)
	}
	p.elemAnchor = make([]int32, 0, len(p.elems))
	for i, e := range s.Entities {
		for range 1 + len(e.Attributes) {
			p.elemAnchor = append(p.elemAnchor, ordinal[i])
		}
	}

	// bfs sets dist over from's component and returns the component in
	// visit order; callers reset dist to -1 after reading it.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	bfs := func(from int) []int {
		dist[from] = 0
		queue = append(queue[:0], from)
		for h := 0; h < len(queue); h++ {
			for _, nb := range g.Neighbors(queue[h]) {
				if dist[nb] < 0 {
					dist[nb] = dist[queue[h]] + 1
					queue = append(queue, nb)
				}
			}
		}
		return queue
	}
	placed := make([]bool, n)
	var comps [][]int
	total := 0
	for _, i := range order {
		if placed[i] {
			continue
		}
		comp := slices.Clone(bfs(i))
		for _, j := range comp {
			placed[j], dist[j] = true, -1
		}
		comps = append(comps, comp)
		total += len(comp) * len(comp)
	}
	p.hopAt = make([]hopBlock, n)
	p.hops = make([]uint8, 0, total)
	for _, comp := range comps {
		base, size := int32(len(p.hops)), int32(len(comp))
		for pos, j := range comp {
			p.hopAt[ordinal[j]] = hopBlock{base: base, size: size, pos: int32(pos)}
		}
		for _, from := range comp {
			bfs(from)
			for _, to := range comp {
				p.hops = append(p.hops, uint8(min(dist[to], MaxHops)))
			}
			for _, to := range comp {
				dist[to] = -1
			}
		}
	}
}

// Elements returns the cached s.Elements() slice. Callers must not mutate it.
func (p *Profile) Elements() []model.Element { return p.elems }

// Anchors returns the schema's entity names in sorted order — the anchor
// scan order of the tightness measurement. Callers must not mutate it.
func (p *Profile) Anchors() []string { return p.anchors }

// Hops returns the foreign-key hop distance from the anchor with ordinal
// anchor (an index into Anchors) to the entity of element elem (an index
// into Elements): 0 for the element's own entity, -1 when unreachable,
// and MaxHops for MaxHops or more.
func (p *Profile) Hops(anchor, elem int) int {
	a, b := p.hopAt[anchor], p.hopAt[p.elemAnchor[elem]]
	if a.base != b.base {
		return -1
	}
	return int(p.hops[a.base+a.pos*a.size+b.pos])
}

// QueryArtifacts holds the query-side computations shared across every
// candidate of one search: elements, the entries of the query's distinct
// names, element names and per-fragment context sets as indices into them,
// type classes, the memo of name-pair similarities, and the elements'
// concepts and synonym lookup words, derived on first use. Built once per
// search and safe for concurrent use by the parallel match workers; only
// the memo and the lazy facts change afterwards.
type QueryArtifacts struct {
	query *query.Query
	elems []query.Element
	class []typeClass

	// names holds one entry per distinct query-side name: the interned one
	// when the corpus knows the name, a throwaway otherwise.
	names    []*nameEntry
	elemName []int32  // index into names, aligned with elems
	ctx      termSets // context sets as indices into names, as in Profile; empty for keywords

	sims pairMemo

	conceptsOnce sync.Once
	concepts     []conceptEntry // ascending by element; elements without concepts are absent
	wordsOnce    sync.Once
	words        [][]string // synonym lookup words, aligned with elems
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
