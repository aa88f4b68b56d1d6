package model

// EntityGraph is the undirected relatedness graph over a schema's entities.
// Its edges are the schema's foreign keys plus (for hierarchical schemas)
// parent/child containment. The tightness-of-fit measurement asks it two
// questions: are two entities the same, FK-related (within the transitive
// closure at some hop distance), or unrelated?
type EntityGraph struct {
	names []string
	idx   map[string]int
	adj   [][]int
}

// NewEntityGraph builds the entity graph of s. Unknown entities referenced
// by foreign keys are ignored (Validate catches them); duplicate edges are
// collapsed.
func NewEntityGraph(s *Schema) *EntityGraph {
	g := &EntityGraph{
		names: make([]string, len(s.Entities)),
		idx:   make(map[string]int, len(s.Entities)),
		adj:   make([][]int, len(s.Entities)),
	}
	for i, e := range s.Entities {
		g.names[i] = e.Name
		g.idx[e.Name] = i
	}
	seen := make(map[[2]int]bool)
	addEdge := func(a, b string) {
		ia, oka := g.idx[a]
		ib, okb := g.idx[b]
		if !oka || !okb || ia == ib {
			return
		}
		key := [2]int{ia, ib}
		if ia > ib {
			key = [2]int{ib, ia}
		}
		if seen[key] {
			return
		}
		seen[key] = true
		g.adj[ia] = append(g.adj[ia], ib)
		g.adj[ib] = append(g.adj[ib], ia)
	}
	for _, fk := range s.ForeignKeys {
		addEdge(fk.FromEntity, fk.ToEntity)
	}
	for _, e := range s.Entities {
		if e.Parent != "" {
			addEdge(e.Name, e.Parent)
		}
	}
	return g
}

// NumEntities returns the node count.
func (g *EntityGraph) NumEntities() int { return len(g.names) }

// Neighbors returns the indices (in declaration order) of the entities
// directly linked to the entity at index i. Callers must not mutate it.
func (g *EntityGraph) Neighbors(i int) []int { return g.adj[i] }

// Has reports whether the graph contains the named entity.
func (g *EntityGraph) Has(name string) bool {
	_, ok := g.idx[name]
	return ok
}

// Adjacent returns the names of entities directly linked to name by a
// foreign key or containment edge. It returns nil for unknown entities.
func (g *EntityGraph) Adjacent(name string) []string {
	i, ok := g.idx[name]
	if !ok {
		return nil
	}
	out := make([]string, len(g.adj[i]))
	for k, j := range g.adj[i] {
		out[k] = g.names[j]
	}
	return out
}

// DistancesFrom returns the hop distance from the given entity to every
// entity in the graph, keyed by entity name; unreachable entities are absent
// from the map. The anchor-entity scan of the tightness measurement calls
// this once per anchor. It is a plain BFS; schemas are small enough (tens
// to low hundreds of entities) that no preprocessing is warranted.
func (g *EntityGraph) DistancesFrom(from string) map[string]int {
	src, ok := g.idx[from]
	if !ok {
		return nil
	}
	dist := make([]int, len(g.names))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[cur] {
			if dist[nb] >= 0 {
				continue
			}
			dist[nb] = dist[cur] + 1
			queue = append(queue, nb)
		}
	}
	out := make(map[string]int, len(g.names))
	for i, d := range dist {
		if d >= 0 {
			out[g.names[i]] = d
		}
	}
	return out
}

// TransitiveClosure returns the set of entities reachable from name via any
// number of foreign-key hops, including name itself. This is the "entity
// neighborhood (transitive closure on foreign key)" of the paper.
func (g *EntityGraph) TransitiveClosure(name string) map[string]bool {
	d := g.DistancesFrom(name)
	if d == nil {
		return nil
	}
	out := make(map[string]bool, len(d))
	for n := range d {
		out[n] = true
	}
	return out
}
