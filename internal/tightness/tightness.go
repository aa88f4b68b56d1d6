// Package tightness implements Schemr's tightness-of-fit measurement — the
// structurally-aware score that turns a similarity matrix into a final
// ranking. Unlike traditional schema matching, the goal is not a mapping
// but a single score capturing the query's semantic intent: a schema whose
// matching elements sit close together (same entity, or entities linked by
// foreign keys) fits tighter than one whose matches are scattered across
// unrelated entities.
//
// For every candidate anchor entity, each matched element is penalized by
// its foreign-key distance to the anchor — nothing within the anchor, a
// small penalty within the anchor's FK neighborhood, a larger penalty in
// unrelated entities — and the penalized scores are averaged. The final
// score is the maximum over all anchors:
//
//	t_max = max_A mean_e max(0, S_e − P_A(e))
package tightness

import (
	"sort"

	"schemr/internal/match"
	"schemr/internal/model"
)

// DefaultMatchThreshold is the default Options.MatchThreshold: the minimum
// best-match similarity for a schema element to count as matched. Exported
// so the engine's coverage computation (which must agree with the matched
// set, or coverage and tightness drift apart) uses the same constant
// instead of a copy that can fall out of sync.
const DefaultMatchThreshold = 0.5

// Options tunes the measurement. Zero values take the documented defaults.
type Options struct {
	// NearPenalty applies to matched elements in entities within NearHops
	// foreign-key hops of the anchor (the paper's "small penalty" for the
	// entity neighborhood). Default 0.1.
	NearPenalty float64
	// FarPenalty applies to matched elements in unrelated entities (beyond
	// NearHops or unreachable). Default 0.3.
	FarPenalty float64
	// NearHops bounds the anchor's entity neighborhood. The default 1
	// matches the paper's Figure 4 walkthrough, where doctor — two hops
	// from patient via case — already counts as "unrelated". Values above
	// match.MaxHops-1 act as match.MaxHops-1, since a match profile's hop
	// counts saturate there.
	NearHops int
	// MatchThreshold is the minimum best-match score for an element to
	// count as matched; elements below it are ignored entirely. The
	// default 0.5 keeps moderate context-only similarity (which the
	// ensemble produces for every element in a matching neighborhood) from
	// diluting the penalized average of genuinely matching schemas.
	MatchThreshold float64
}

func (o *Options) defaults() {
	if o.NearPenalty == 0 {
		o.NearPenalty = 0.1
	}
	if o.FarPenalty == 0 {
		o.FarPenalty = 0.3
	}
	if o.NearHops == 0 {
		o.NearHops = 1
	}
	o.NearHops = min(o.NearHops, match.MaxHops-1)
	if o.MatchThreshold == 0 {
		o.MatchThreshold = DefaultMatchThreshold
	}
}

// ElementScore reports one matched schema element: its best similarity
// score, which query element achieved it, and the penalty applied under the
// winning anchor.
type ElementScore struct {
	Element    int // index into the matrix's schema elements
	Ref        model.ElementRef
	Kind       model.ElementKind
	Score      float64 // S_e: best similarity over query elements
	QueryIndex int     // index into the matrix's query elements
	Penalty    float64 // P(e) under the winning anchor
}

// Result is the tightness-of-fit of one candidate schema.
type Result struct {
	// Score is t_max in [0,1]: the penalty-adjusted mean of the matched
	// element scores under the best anchor. 0 when nothing matched.
	Score float64
	// Anchor is the winning anchor entity ("" when nothing matched).
	Anchor string
	// Matched lists the matched elements with penalties under the winning
	// anchor, in schema element order.
	Matched []ElementScore
	// AnchorScores reports every anchor's penalized average — the paper's
	// per-anchor calculations, surfaced for explanation and tests.
	AnchorScores map[string]float64
}

// NumMatches returns the number of matched elements.
func (r Result) NumMatches() int { return len(r.Matched) }

// Score computes the tightness-of-fit of schema s under the combined
// similarity matrix m (whose schema columns must come from s.Elements()).
func Score(s *model.Schema, m *match.Matrix, opts Options) Result {
	return new(Scratch).score(m, opts, &schemaGraph{s: s, m: m, cur: -1}, map[string]float64{})
}

// ScoreProfiled is Score reusing the candidate's cached match profile: the
// sorted anchor list and the hop distance of every anchor to every
// element come precomputed instead of being rebuilt per candidate per
// search. The result is identical to Score(s, m, opts) for the schema s
// the profile was built from. It is Scratch.Score on fresh memory, plus
// AnchorScores.
func ScoreProfiled(p *match.Profile, m *match.Matrix, opts Options) Result {
	return new(Scratch).score(m, opts, p, map[string]float64{})
}

// graph is what the measurement reads of a schema's entity graph: the
// anchors in scan order, and the FK distance from an anchor (by ordinal)
// to an element's entity, -1 when unreachable. A match profile is one.
type graph interface {
	Anchors() []string
	Hops(anchor, elem int) int
}

// schemaGraph is the graph of a schema without a profile, built on first
// use: score only asks when something matched.
type schemaGraph struct {
	s       *model.Schema
	m       *match.Matrix
	g       *model.EntityGraph
	anchors []string
	cur     int            // the anchor dists holds
	dists   map[string]int // hop distances from anchor cur
}

func (sg *schemaGraph) Anchors() []string {
	if sg.g == nil {
		sg.g = model.NewEntityGraph(sg.s)
		// "This calculation is repeated for all possible anchor entities":
		// every entity is a candidate anchor, not just those containing a
		// matched element — a hub entity adjacent to two disconnected match
		// clusters can beat an anchor inside either cluster.
		for _, e := range sg.s.Entities {
			sg.anchors = append(sg.anchors, e.Name)
		}
		sort.Strings(sg.anchors) // deterministic tie-breaking: first anchor wins
	}
	return sg.anchors
}

func (sg *schemaGraph) Hops(anchor, elem int) int {
	if anchor != sg.cur { // score asks anchor by anchor
		sg.cur, sg.dists = anchor, sg.g.DistancesFrom(sg.anchors[anchor])
	}
	if d, ok := sg.dists[sg.m.Schema[elem].Ref.Entity]; ok {
		return d
	}
	return -1
}

// Scratch is one phase-3 worker's memory, reused across every candidate
// it scores: the ElementBest buffers, the matched set, the penalties
// under the anchor being scored and under the best anchor so far, and the
// matched elements of the result. The zero value is ready to use; a
// Scratch is not safe for concurrent use.
type Scratch struct {
	best    []float64
	argmax  []int
	matched []int     // schema element indices of the matched elements
	pen     []float64 // penalties under the anchor being scored
	bestPen []float64 // penalties under the best anchor so far
	out     []ElementScore
}

// Score is ScoreProfiled into sc's memory, without AnchorScores: the
// Result's Matched is sc's and valid until sc's next Score.
func (sc *Scratch) Score(p *match.Profile, m *match.Matrix, opts Options) Result {
	return sc.score(m, opts, p, nil)
}

// score is the measurement of m over graph g. Each anchor's penalized
// average is recorded in anchorScores unless it is nil, which is also the
// Result's AnchorScores.
func (sc *Scratch) score(m *match.Matrix, opts Options, g graph, anchorScores map[string]float64) Result {
	opts.defaults()

	sc.best, sc.argmax = grow(sc.best, len(m.Schema)), grow(sc.argmax, len(m.Schema))
	m.ElementBestInto(sc.best, sc.argmax)
	sc.matched = sc.matched[:0]
	for si, arg := range sc.argmax {
		if arg >= 0 && sc.best[si] >= opts.MatchThreshold {
			sc.matched = append(sc.matched, si)
		}
	}
	if len(sc.matched) == 0 {
		return Result{AnchorScores: anchorScores}
	}

	sc.pen, sc.bestPen = grow(sc.pen, len(sc.matched)), grow(sc.bestPen, len(sc.matched))
	bestScore, bestAnchor := -1.0, ""
	for a, anchor := range g.Anchors() {
		total := 0.0
		for i, el := range sc.matched {
			p := penaltyFor(g.Hops(a, el), opts)
			sc.pen[i] = p
			if adj := sc.best[el] - p; adj > 0 {
				total += adj
			}
		}
		avg := total / float64(len(sc.matched))
		if anchorScores != nil {
			anchorScores[anchor] = avg
		}
		if avg > bestScore {
			bestScore, bestAnchor = avg, anchor
			sc.pen, sc.bestPen = sc.bestPen, sc.pen // keep the winner's penalties
		}
	}

	sc.out = sc.out[:0]
	for i, el := range sc.matched {
		e := m.Schema[el]
		sc.out = append(sc.out, ElementScore{
			Element:    el,
			Ref:        e.Ref,
			Kind:       e.Kind,
			Score:      sc.best[el],
			QueryIndex: sc.argmax[el],
			Penalty:    sc.bestPen[i],
		})
	}
	return Result{Score: bestScore, Anchor: bestAnchor, Matched: sc.out, AnchorScores: anchorScores}
}

// grow returns buf resliced to length n, reallocated when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// penaltyFor returns the penalty for a matched element d FK hops from the
// anchor (-1: unreachable).
func penaltyFor(d int, opts Options) float64 {
	switch {
	case d == 0:
		return 0
	case d > 0 && d <= opts.NearHops:
		return opts.NearPenalty
	default:
		return opts.FarPenalty
	}
}
