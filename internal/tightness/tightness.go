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
	return score(m, opts, func() ([]string, func(anchor, elem int) int) {
		g := model.NewEntityGraph(s)
		// "This calculation is repeated for all possible anchor entities":
		// every entity is a candidate anchor, not just those containing a
		// matched element — a hub entity adjacent to two disconnected match
		// clusters can beat an anchor inside either cluster.
		anchors := make([]string, 0, len(s.Entities))
		for _, e := range s.Entities {
			anchors = append(anchors, e.Name)
		}
		sort.Strings(anchors) // deterministic tie-breaking: first anchor wins
		cur, dists := -1, map[string]int(nil)
		return anchors, func(anchor, elem int) int {
			if anchor != cur { // score asks anchor by anchor
				cur, dists = anchor, g.DistancesFrom(anchors[anchor])
			}
			if d, ok := dists[m.Schema[elem].Ref.Entity]; ok {
				return d
			}
			return -1
		}
	})
}

// ScoreProfiled is Score reusing the candidate's cached match profile: the
// sorted anchor list and the hop distance of every anchor to every
// element come precomputed instead of being rebuilt per candidate per
// search. The result is identical to Score(s, m, opts) for the schema s
// the profile was built from.
func ScoreProfiled(p *match.Profile, m *match.Matrix, opts Options) Result {
	return score(m, opts, func() ([]string, func(anchor, elem int) int) {
		return p.Anchors(), p.Hops
	})
}

// score is the shared measurement: graphFn supplies the anchor list and
// hops(anchor, elem), the FK distance from an anchor (by ordinal) to an
// element's entity (-1 when unreachable), and is only invoked when
// something matched.
func score(m *match.Matrix, opts Options, graphFn func() ([]string, func(anchor, elem int) int)) Result {
	opts.defaults()

	best, argmax := m.ElementBest()
	type matchedEl struct {
		idx   int // index into m.Schema
		score float64
	}
	var matched []matchedEl
	for si := range m.Schema {
		if argmax[si] >= 0 && best[si] >= opts.MatchThreshold {
			matched = append(matched, matchedEl{si, best[si]})
		}
	}
	if len(matched) == 0 {
		return Result{AnchorScores: map[string]float64{}}
	}

	anchors, hops := graphFn()

	res := Result{AnchorScores: make(map[string]float64, len(anchors))}
	bestScore, bestAnchor := -1.0, ""
	var bestPenalties []float64

	for a, anchor := range anchors {
		total := 0.0
		penalties := make([]float64, len(matched))
		for i, me := range matched {
			p := penaltyFor(hops(a, me.idx), opts)
			penalties[i] = p
			adj := me.score - p
			if adj > 0 {
				total += adj
			}
		}
		avg := total / float64(len(matched))
		res.AnchorScores[anchor] = avg
		if avg > bestScore {
			bestScore, bestAnchor, bestPenalties = avg, anchor, penalties
		}
	}

	res.Score = bestScore
	res.Anchor = bestAnchor
	res.Matched = make([]ElementScore, len(matched))
	for i, me := range matched {
		el := m.Schema[me.idx]
		res.Matched[i] = ElementScore{
			Element:    me.idx,
			Ref:        el.Ref,
			Kind:       el.Kind,
			Score:      me.score,
			QueryIndex: argmax[me.idx],
			Penalty:    bestPenalties[i],
		}
	}
	return res
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
