package match

import (
	"schemr/internal/model"
	"schemr/internal/query"
)

// ContextMatcher builds, for each element, the set of terms of its
// neighboring elements, and "tries to capture matches when
// neighboring-element sets are similar to each other" [Madhavan et al.;
// Rahm & Bernstein]. An attribute's context is its entity's name and its
// sibling attributes; an entity's context is its attributes and the
// entities adjacent to it via foreign keys or containment. Set similarity
// is a soft Jaccard that credits near-matching terms using the name
// matcher's n-gram similarity.
//
// Bare keywords have no neighborhood, so the matcher reports NotApplicable
// for keyword rows; the ensemble renormalizes weights there.
type ContextMatcher struct {
	nm *NameMatcher
	// minTermSim is the per-term similarity below which two context terms
	// are considered unrelated (soft-Jaccard credit 0).
	minTermSim float64
}

// NewContextMatcher returns a context matcher with the default term
// threshold (0.3).
func NewContextMatcher() *ContextMatcher {
	return &ContextMatcher{nm: NewNameMatcher(), minTermSim: 0.3}
}

// Name implements Matcher.
func (cm *ContextMatcher) Name() string { return "context" }

// Cost implements CostTiered: the most expensive matcher in the ensemble —
// each cell soft-Jaccards two whole neighbor-term sets.
func (cm *ContextMatcher) Cost() int { return CostNeighborhood }

// contextSets returns each element's neighbor-term set.
func contextSets(s *model.Schema) map[model.ElementRef][]string {
	return contextSetsWith(model.NewEntityGraph(s), s)
}

// contextSetsWith is contextSets with a caller-supplied entity graph, so
// profile construction builds the graph once and shares it with tightness.
func contextSetsWith(g *model.EntityGraph, s *model.Schema) map[model.ElementRef][]string {
	out := make(map[model.ElementRef][]string, s.NumElements())
	for _, e := range s.Entities {
		var entCtx []string
		for _, a := range e.Attributes {
			entCtx = append(entCtx, a.Name)
		}
		entCtx = append(entCtx, g.Adjacent(e.Name)...)
		out[model.ElementRef{Entity: e.Name}] = entCtx

		for _, a := range e.Attributes {
			ctx := make([]string, 0, len(e.Attributes))
			ctx = append(ctx, e.Name)
			for _, sib := range e.Attributes {
				if sib.Name != a.Name {
					ctx = append(ctx, sib.Name)
				}
			}
			out[model.ElementRef{Entity: e.Name, Attribute: a.Name}] = ctx
		}
	}
	return out
}

// termSets holds one term set per element as indices into a name list,
// flat: set i is ids[off[i]:off[i+1]].
type termSets struct {
	off []int32
	ids []int32
}

// at returns set i. Callers must not mutate it.
func (t termSets) at(i int) []int32 { return t.ids[t.off[i]:t.off[i+1]] }

// add appends the next element's set.
func (t *termSets) add(ix *nameIndex, raw []string) {
	if t.off == nil {
		t.off = []int32{0}
	}
	for _, r := range raw {
		t.ids = append(t.ids, ix.add(r))
	}
	t.off = append(t.off, int32(len(t.ids)))
}

// addSchema indexes a schema's element names and neighbor-term sets: each
// element's name index and its context set as name indices, both aligned
// with elems.
func (ix *nameIndex) addSchema(g *model.EntityGraph, s *model.Schema, elems []model.Element) (elemName []int32, ctx termSets) {
	sets := contextSetsWith(g, s)
	terms := 0
	for _, set := range sets {
		terms += len(set)
	}
	elemName = make([]int32, len(elems))
	ctx = termSets{off: make([]int32, 1, len(elems)+1), ids: make([]int32, 0, terms)}
	for i, el := range elems {
		elemName[i] = ix.add(el.Name)
		ctx.add(ix, sets[el.Ref])
	}
	return elemName, ctx
}

// addQuery is addSchema for a query: fragment elements take their context
// from their own fragment, keywords have none (an empty set).
func (ix *nameIndex) addQuery(q *query.Query, elems []query.Element) (elemName []int32, ctx termSets) {
	sets := make([]map[model.ElementRef][]string, len(q.Fragments))
	for i, frag := range q.Fragments {
		sets[i] = contextSets(frag)
	}
	elemName = make([]int32, len(elems))
	ctx.off = make([]int32, 1, len(elems)+1)
	for i, el := range elems {
		elemName[i] = ix.add(el.Name)
		var set []string
		if !el.IsKeyword() {
			set = sets[el.Fragment][el.Ref]
		}
		ctx.add(ix, set)
	}
	return elemName, ctx
}

// softJaccard scores two term sets in [0,1]: for each term the best
// similarity to any term of the other set (zeroed below the threshold),
// summed both ways and divided by the total term count. Terms are name
// indices; sim(a[i], b[j]) is tab[a[i]*stride+b[j]].
func (cm *ContextMatcher) softJaccard(tab []float64, stride int, a, b []int32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	total := 0.0
	for _, ta := range a {
		row := tab[int(ta)*stride : (int(ta)+1)*stride]
		best := 0.0
		for _, tb := range b {
			if v := row[tb]; v > best {
				best = v
			}
		}
		if best >= cm.minTermSim {
			total += best
		}
	}
	for _, tb := range b {
		best := 0.0
		for _, ta := range a {
			if v := tab[int(ta)*stride+int(tb)]; v > best {
				best = v
			}
		}
		if best >= cm.minTermSim {
			total += best
		}
	}
	return total / float64(len(a)+len(b))
}

// match fills the context matrix from both sides' context sets and the
// similarity table over their distinct names (unread, so nil will do, for
// a query without fragments).
func (cm *ContextMatcher) match(qe []query.Element, se []model.Element, qctx, sctx termSets, tab []float64, stride int) *Matrix {
	m := NewMatrix(qe, se)
	for qi, qel := range qe {
		if qel.IsKeyword() {
			continue // row stays NotApplicable
		}
		row := m.Scores[qi]
		for si, sel := range se {
			// Contexts only compare like with like: entity neighborhoods
			// against entity neighborhoods, attribute siblings against
			// attribute siblings.
			if qel.Kind != sel.Kind {
				row[si] = 0
			} else {
				row[si] = cm.softJaccard(tab, stride, qctx.at(qi), sctx.at(si))
			}
		}
	}
	return m
}

// Match implements Matcher, scoring each distinct term pair once on
// throwaway entries.
func (cm *ContextMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	var qix, six nameIndex
	_, qctx := qix.addQuery(q, qe)
	_, sctx := six.addSchema(model.NewEntityGraph(s), s, se)
	var tab []float64
	if len(q.Fragments) > 0 {
		tab = simTable(qix.throwaway(cm.nm.maxGram), six.throwaway(cm.nm.maxGram))
	}
	return cm.match(qe, se, qctx, sctx, tab, len(six.norms))
}

// MatchProfiled implements ProfiledMatcher: neighbor-term sets come indexed
// from the query artifacts and the schema profile, and the term-pair
// similarities from the per-search memo the name matcher also fills.
func (cm *ContextMatcher) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	if cm.nm.maxGram != defaultMaxGram {
		return cm.Match(qa.query, p.decode())
	}
	var tab []float64
	if len(qa.query.Fragments) > 0 {
		tab = qa.sims.table(qa.names, p.names)
	}
	return cm.match(qa.elems, p.elems, qa.ctx, p.ctx, tab, len(p.names))
}
