package tightness

import (
	"sort"

	"schemr/internal/match"
	"schemr/internal/model"
)

// Score is the oracle of ScoreProfiled: the measurement of schema s under
// the combined similarity matrix m (whose schema columns must come from
// s.Elements()), reading anchors and hop distances from s's entity graph
// instead of a match profile.
func Score(s *model.Schema, m *match.Matrix, opts Options) Result {
	return new(Scratch).score(m, opts, &schemaGraph{s: s, m: m, cur: -1}, map[string]float64{})
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
