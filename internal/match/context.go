package match

import (
	"slices"

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
	// minTermSim is the per-term similarity below which two context terms
	// are considered unrelated (soft-Jaccard credit 0).
	minTermSim float64
}

// NewContextMatcher returns a context matcher with the default term
// threshold (0.3).
func NewContextMatcher() *ContextMatcher {
	return &ContextMatcher{minTermSim: 0.3}
}

// Name implements Matcher.
func (cm *ContextMatcher) Name() string { return "context" }

// Cost implements CostTiered: the most expensive matcher in the ensemble —
// every entity pair compares two whole neighbor-term sets.
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
// flat: set i is ids[off[i]:off[i+1]]. framed[i] marks an attribute
// scored from its entity's frame, whose set is not kept (see Frames).
// The synonym kernel keeps synonym-set indexes in one, without framed.
type termSets struct {
	off    []int32
	ids    []int32
	framed []bool
}

// at returns set i. Callers must not mutate it.
func (t termSets) at(i int) []int32 { return t.ids[t.off[i]:t.off[i+1]] }

// Frames. An entity's frame is its name, then every attribute's name: the
// element names of the entity's element run, elemName[start:end]. An
// attribute's context set is normally its entity's frame minus its own
// slot, so the context kernel reads such a framed attribute's context
// from the frame and its set is not kept. An attribute whose set is
// anything else keeps its set and is scored set by set: one of several
// attributes sharing a raw name, whose sibling list drops them all, or
// one whose set another element's displaced, since sets are keyed by
// element ref (two like-named entities, or an attribute named "" beside
// its entity).

// addContexts appends one context set per element to ctx as name indices,
// marking framed attributes and keeping no set for them. elemName must
// already hold every element's name index; entity(i) reports whether
// element i is an entity, and set(i) returns element i's raw context
// terms (nil for a keyword).
func (ix *nameIndex) addContexts(ctx *termSets, elemName []int32, entity func(int) bool, set func(int) []string) {
	ctx.off = make([]int32, 1, len(elemName)+1)
	ctx.framed = make([]bool, len(elemName))
	start, end := -1, -1 // the current entity's frame: elemName[start:end]
	for i := range elemName {
		if entity(i) {
			start, end = i, i+1
			for end < len(elemName) && !entity(end) {
				end++
			}
		}
		mark := len(ctx.ids)
		for _, r := range set(i) {
			ctx.ids = append(ctx.ids, ix.add(r))
		}
		if start >= 0 && i != start && frameMinusSlot(ctx.ids[mark:], elemName[start:end], i-start) {
			ctx.ids = ctx.ids[:mark]
			ctx.framed[i] = true
		}
		ctx.off = append(ctx.off, int32(len(ctx.ids)))
	}
	ctx.ids = slices.Clone(ctx.ids) // framed sets were appended, then dropped
}

// frameMinusSlot reports whether set is frame without its slot-th term.
func frameMinusSlot(set, frame []int32, slot int) bool {
	if len(set) != len(frame)-1 {
		return false
	}
	for k, t := range set {
		if k >= slot {
			k++
		}
		if frame[k] != t {
			return false
		}
	}
	return true
}

// addSchema indexes a schema's element names and context sets, both
// aligned with elems.
func (ix *nameIndex) addSchema(g *model.EntityGraph, s *model.Schema, elems []model.Element) (elemName []int32, ctx termSets) {
	sets := contextSetsWith(g, s)
	elemName = make([]int32, len(elems))
	for i, el := range elems {
		elemName[i] = ix.add(el.Name)
	}
	ix.addContexts(&ctx, elemName,
		func(i int) bool { return elems[i].Kind == model.KindEntity },
		func(i int) []string { return sets[elems[i].Ref] })
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
	for i, el := range elems {
		elemName[i] = ix.add(el.Name)
	}
	ix.addContexts(&ctx, elemName,
		func(i int) bool { return !elems[i].IsKeyword() && elems[i].Kind == model.KindEntity },
		func(i int) []string {
			if elems[i].IsKeyword() {
				return nil
			}
			return sets[elems[i].Fragment][elems[i].Ref]
		})
	return elemName, ctx
}

// softJaccard scores two term sets in [0,1]: for each term the best
// similarity to any term of the other set (zeroed below the threshold),
// summed both ways and divided by the total term count. Terms are name
// indices; sim(a[i], b[j]) is tab[a[i]*stride+b[j]]. The context kernel
// scores entity cells and unframed attributes with it; framed attribute
// cells take frameCell, which sums the same values in the same order.
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

// slotBest is one frame term's best similarity to the terms of another
// frame, the slot achieving it (the first, on ties; -1 while every
// similarity is 0) and the best over every other slot. Once a frame pair
// is complete both values are credits: a similarity below the matcher's
// term threshold reads 0, which adds nothing to a soft Jaccard's total.
type slotBest struct {
	best, second float64
	at           int32
}

// offer folds the similarity v of the term at slot into the running best.
func (s *slotBest) offer(v float64, slot int) {
	if v > s.best {
		s.second, s.best, s.at = s.best, v, int32(slot)
	} else if v > s.second {
		s.second = v
	}
}

// without returns the best over every slot but slot.
func (s slotBest) without(slot int) float64 {
	if int(s.at) == slot {
		return s.second
	}
	return s.best
}

// frameScratch is the context kernel's reusable memory.
type frameScratch struct {
	qStart, sStart []int32    // each side's frame starts, then its element count
	qBest, sBest   []slotBest // per slot of the current query and schema frame
	a, b           []int32    // an unframed cell's two sets, when one side is framed
}

// pair fills qBest and sBest for query frame fq against schema frame fs.
func (cm *ContextMatcher) pair(f *frameScratch, tab []float64, stride int, fq, fs []int32) {
	f.qBest, f.sBest = grow(f.qBest, len(fq)), grow(f.sBest, len(fs))
	for b := range f.sBest {
		f.sBest[b] = slotBest{at: -1}
	}
	for a, ta := range fq {
		row := tab[int(ta)*stride : (int(ta)+1)*stride]
		qb := slotBest{at: -1}
		for b, tb := range fs {
			v := row[tb]
			qb.offer(v, b)
			f.sBest[b].offer(v, a)
		}
		f.qBest[a] = cm.credit(qb)
	}
	for b, sb := range f.sBest {
		f.sBest[b] = cm.credit(sb)
	}
}

// credit zeroes the similarities of s below the term threshold.
func (cm *ContextMatcher) credit(s slotBest) slotBest {
	if s.best < cm.minTermSim {
		s.best = 0
	}
	if s.second < cm.minTermSim {
		s.second = 0
	}
	return s
}

// frameCell is softJaccard(fq minus slot i, fs minus slot j) for the
// frame pair last passed to pair: each term's best over the other set is
// its best over the other frame, or its second best when the best sat in
// the dropped slot. It adds the same credits in softJaccard's order; a
// zero credit, which softJaccard skips, leaves the (non-negative) total
// bit for bit unchanged.
func frameCell(f *frameScratch, i, j int) float64 {
	total := 0.0
	for _, qb := range f.qBest[:i] {
		total += qb.without(j)
	}
	for _, qb := range f.qBest[i+1:] {
		total += qb.without(j)
	}
	for _, sb := range f.sBest[:j] {
		total += sb.without(i)
	}
	for _, sb := range f.sBest[j+1:] {
		total += sb.without(i)
	}
	return total / float64(len(f.qBest)+len(f.sBest)-2)
}

// contextOf returns element i's context set: its kept set, or for a
// framed attribute its frame minus its slot, built in buf.
func contextOf(buf *[]int32, ctx termSets, i int, frame []int32, slot int) []int32 {
	if !ctx.framed[i] {
		return ctx.at(i)
	}
	*buf = append(append((*buf)[:0], frame[:slot]...), frame[slot+1:]...)
	return *buf
}

// match fills the context matrix of a query with fragments from both
// sides' element names and context sets and the similarity table over
// their distinct names. Keyword rows are NotApplicable, and contexts
// only compare like with like — entity neighborhoods against entity
// neighborhoods, attribute siblings against attribute siblings — so
// every other cross-kind cell is 0. Entity cells are soft Jaccards of
// their sets; attribute cells are filled frame pair by frame pair.
func (cm *ContextMatcher) match(dst *Matrix, f *frameScratch, tab []float64, stride int, qName []int32, qctx termSets, sName []int32, sctx termSets) {
	qe, se := dst.Query, dst.Schema
	f.qStart, f.sStart = f.qStart[:0], f.sStart[:0]
	for si, sel := range se {
		if sel.Kind == model.KindEntity {
			f.sStart = append(f.sStart, int32(si))
		}
	}
	for qi, qel := range qe {
		row := dst.Scores[qi]
		switch {
		case qel.IsKeyword():
			for si := range row {
				row[si] = NotApplicable
			}
		case qel.Kind == model.KindEntity:
			f.qStart = append(f.qStart, int32(qi))
			for si, sel := range se {
				if sel.Kind == model.KindEntity {
					row[si] = cm.softJaccard(tab, stride, qctx.at(qi), sctx.at(si))
				} else {
					row[si] = 0
				}
			}
		default: // attribute × attribute cells are filled frame pair by frame pair
			for _, si := range f.sStart {
				row[si] = 0
			}
		}
	}
	f.qStart, f.sStart = append(f.qStart, int32(len(qe))), append(f.sStart, int32(len(se)))

	for x := 0; x+1 < len(f.qStart); x++ {
		q0, q1 := int(f.qStart[x]), int(f.qStart[x+1])
		if q1-q0 < 2 {
			continue // an entity without attributes
		}
		fq := qName[q0:q1]
		for y := 0; y+1 < len(f.sStart); y++ {
			s0, s1 := int(f.sStart[y]), int(f.sStart[y+1])
			if s1-s0 < 2 {
				continue
			}
			fs := sName[s0:s1]
			cm.pair(f, tab, stride, fq, fs)
			for qi := q0 + 1; qi < q1; qi++ {
				row := dst.Scores[qi]
				for si := s0 + 1; si < s1; si++ {
					if qctx.framed[qi] && sctx.framed[si] {
						row[si] = frameCell(f, qi-q0, si-s0)
					} else {
						row[si] = cm.softJaccard(tab, stride,
							contextOf(&f.a, qctx, qi, fq, qi-q0), contextOf(&f.b, sctx, si, fs, si-s0))
					}
				}
			}
		}
	}
}

// Fill implements Matcher: context sets and frames come indexed from the
// query artifacts and the schema profile, and the term-pair similarities
// from the candidate's name-pair table. A query without fragments has no
// context to compare, so nothing applies and nothing is written.
func (cm *ContextMatcher) Fill(dst *Matrix, sc *Scratch, qa *QueryArtifacts, p *Profile) bool {
	if len(qa.query.Fragments) == 0 {
		return false
	}
	cm.match(dst, &sc.frames, sc.pairs(qa, p), len(p.names), qa.elemName, qa.ctx, p.elemName, p.ctx)
	return true
}
