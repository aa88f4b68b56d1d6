package match

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"schemr/internal/model"
	"schemr/internal/query"
)

// setBySetContext is the context matrix scored set by set, the way the
// matcher scored every cell before frames: each like-kind cell is the soft
// Jaccard of the two elements' whole context sets, as contextSets builds
// them, over a table of throwaway entries.
func setBySetContext(q *query.Query, s *model.Schema) *Matrix {
	cm := NewContextMatcher()
	qe, se := q.Elements(), s.Elements()
	var qix, six nameIndex
	ids := func(ix *nameIndex, raw []string) []int32 {
		out := make([]int32, len(raw))
		for i, r := range raw {
			out[i] = ix.add(r)
		}
		return out
	}
	qSets := make([][]int32, len(qe))
	for i, el := range qe {
		if !el.IsKeyword() {
			qSets[i] = ids(&qix, contextSets(q.Fragments[el.Fragment])[el.Ref])
		}
	}
	sCtx := contextSets(s)
	sSets := make([][]int32, len(se))
	for j, el := range se {
		sSets[j] = ids(&six, sCtx[el.Ref])
	}
	tab := simTable(qix.throwaway(), six.throwaway())
	m := NewMatrix(qe, se)
	for i, qel := range qe {
		for j, sel := range se {
			switch {
			case qel.IsKeyword():
			case qel.Kind != sel.Kind:
				m.Scores[i][j] = 0
			default:
				m.Scores[i][j] = cm.softJaccard(tab, len(six.norms), qSets[i], sSets[j])
			}
		}
	}
	return m
}

// checkFrames compares the frame kernel — profiled, into a reused
// scratch and on fresh memory, and unprofiled — with the set-by-set
// context matrix bit for bit.
func checkFrames(t *testing.T, label string, q *query.Query, s *model.Schema, sc *Scratch) {
	t.Helper()
	want := setBySetContext(q, s)
	qa, p := NewQueryArtifacts(q), NewProfile(s)
	ens, err := NewEnsemble(NewContextMatcher())
	if err != nil {
		t.Fatal(err)
	}
	ens.MatchInto(sc, qa, p)
	for _, got := range []struct {
		path string
		m    *Matrix
	}{
		{"scratch", sc.matrices()[0]},
		{"fresh", freshMatch(NewContextMatcher(), qa, p)},
		{"unprofiled", NewContextMatcher().Match(q, s)},
	} {
		for i := range want.Scores {
			for j := range want.Scores[i] {
				if g, w := got.m.Scores[i][j], want.Scores[i][j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s %s: cell (%d,%d) %q × %q = %v, set by set %v", label, got.path, i, j,
						want.Query[i].Name, want.Schema[j].Name, g, w)
				}
			}
		}
	}
}

// framedCounts counts the attributes of one side scored from frames and
// those that keep their set.
func framedCounts(elems int, ctx termSets, attribute func(int) bool) (framed, kept int) {
	for i := range elems {
		switch {
		case ctx.framed[i]:
			framed++
		case attribute(i):
			kept++
		}
	}
	return framed, kept
}

func frag(entities ...*model.Entity) *model.Schema { return &model.Schema{Entities: entities} }

func ent(name string, attrs ...string) *model.Entity {
	e := &model.Entity{Name: name}
	for _, a := range attrs {
		e.Attributes = append(e.Attributes, &model.Attribute{Name: a})
	}
	return e
}

// TestContextFramesMatchSetBySet: the frame kernel's context matrix equals
// the set-by-set soft Jaccard bit for bit on single-attribute entities
// (one-term sets), attributes named like their entity, raw names that
// normalize alike, multi-entity fragments, repeated attribute names in
// fragments and schemas (the set-by-set fallback), like-named entities
// and an attribute named "" whose sets collide, and generated queries and
// schemas — with one scratch reused across them all, so stale buffers
// would show.
func TestContextFramesMatchSetBySet(t *testing.T) {
	hand := []*model.Schema{
		frag(ent("patient", "height")),
		frag(ent("patient", "patient", "height", "gender")),
		frag(ent("sample", "sampleId", "sample_id", "SampleID", "volume")),
		frag(ent("case", "id", "patient", "doctor", "diagnosis"), ent("doctor", "id", "gender"), ent("ward")),
		frag(ent("visit", "id", "date", "id", "note", "date")),
		frag(ent("e", "a"), ent("e", "a", "b")),
		frag(ent("id", "", "x_y", "x_y"), ent("id")),
	}
	hand[3].ForeignKeys = []model.ForeignKey{{FromEntity: "case", ToEntity: "doctor"}}
	var queries []*query.Query
	for i, f := range hand {
		queries = append(queries, &query.Query{Fragments: []*model.Schema{f}})
		queries = append(queries, &query.Query{Keywords: []string{"height", "patient"}, Fragments: []*model.Schema{f, hand[(i+1)%len(hand)]}})
	}
	queries = append(queries, &query.Query{Keywords: []string{"height"}})
	schemas := append([]*model.Schema(nil), hand...)
	for i, s := range schemas {
		s.ID = fmt.Sprintf("hand%d", i)
	}
	g := nameGen{rand.New(rand.NewSource(53))}
	for i := 0; i < 30; i++ {
		queries = append(queries, g.query())
		schemas = append(schemas, g.schema(fmt.Sprintf("gen%d", i)))
	}

	var sc Scratch
	var qFramed, qKept, sFramed, sKept int
	for qi, q := range queries {
		qa := NewQueryArtifacts(q)
		f, k := framedCounts(len(qa.elems), qa.ctx, func(i int) bool {
			return !qa.elems[i].IsKeyword() && qa.elems[i].Kind == model.KindAttribute
		})
		qFramed, qKept = qFramed+f, qKept+k
		for _, s := range schemas {
			checkFrames(t, fmt.Sprintf("q%d %s", qi, s.ID), q, s, &sc)
		}
	}
	for _, s := range schemas {
		p := NewProfile(s)
		f, k := framedCounts(len(p.elems), p.ctx, func(i int) bool { return p.elems[i].Kind == model.KindAttribute })
		sFramed, sKept = sFramed+f, sKept+k
	}
	if qFramed == 0 || qKept == 0 || sFramed == 0 || sKept == 0 {
		t.Fatalf("both paths not exercised on both sides: query %d framed / %d kept, schema %d framed / %d kept",
			qFramed, qKept, sFramed, sKept)
	}
}

// fuzzVocab holds near-duplicate names: raw spellings that normalize
// alike, an entity-like name, the empty name.
var fuzzVocab = []string{"id", "ID", "sample_id", "sampleId", "patient", "Patient", "patient id",
	"name", "a", "", "x_y", "xY", "height", "hght"}

// fuzzTypes are the declared attribute types fuzzSchema draws from: none,
// and one per coarse class the type and concept matchers tell apart.
var fuzzTypes = []string{"", "INT", "VARCHAR(8)", "DATE", "FLOAT", "DECIMAL(10,2)", "BOOLEAN"}

// fuzzSchema builds a schema from fuzz bytes: each byte adds an entity
// (low bit 0, or no entity yet) or an attribute of the last entity, named
// from fuzzVocab by its upper bits and typed from fuzzTypes by what is
// left of them; every third entity links to the one before it.
func fuzzSchema(id string, data []byte) *model.Schema {
	s := &model.Schema{ID: id, Name: id}
	for _, b := range data {
		v := int(b >> 1)
		n := fuzzVocab[v%len(fuzzVocab)]
		if b&1 == 0 || len(s.Entities) == 0 {
			s.Entities = append(s.Entities, &model.Entity{Name: n})
			if k := len(s.Entities); k%3 == 0 {
				s.ForeignKeys = append(s.ForeignKeys, model.ForeignKey{FromEntity: n, ToEntity: s.Entities[k-2].Name})
			}
			continue
		}
		e := s.Entities[len(s.Entities)-1]
		e.Attributes = append(e.Attributes, &model.Attribute{Name: n, Type: fuzzTypes[v/len(fuzzVocab)%len(fuzzTypes)]})
	}
	return s
}

// checkKernels runs the six-matcher ensemble into sc and compares every
// matcher's matrix with its oracle bit for bit.
func checkKernels(t *testing.T, label string, en *Ensemble, q *query.Query, s *model.Schema, sc *Scratch) {
	t.Helper()
	en.MatchInto(sc, NewQueryArtifacts(q), NewProfile(s))
	for k, got := range sc.matrices() {
		want := en.matchers[k].(oracle).Match(q, s)
		for i := range want.Scores {
			for j := range want.Scores[i] {
				if g, w := got.Scores[i][j], want.Scores[i][j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s %s: cell (%d,%d) %q × %q = %v, oracle %v", label, en.matchers[k].Name(), i, j,
						want.Query[i].Name, want.Schema[j].Name, g, w)
				}
			}
		}
	}
}

// FuzzContextFrames: for any query and schema built from the input, the
// frame kernel's context matrix equals the set-by-set one, and every
// kernel of the six-matcher ensemble, run into one reused scratch, equals
// its oracle — all bit for bit. The first byte splits the rest into one
// or two fragments and a schema, and picks the keywords.
func FuzzContextFrames(f *testing.F) {
	f.Add([]byte{0x23, 0x08, 0x03, 0x07, 0x00, 0x09, 0x0b, 0x08, 0x09, 0x0d, 0x0f})
	f.Add([]byte{0x42, 0x08, 0x09, 0x09, 0x09, 0x06, 0x09, 0x03, 0x05, 0x02, 0x07, 0x07})
	f.Add([]byte{0x11, 0x06, 0x07, 0x12, 0x13, 0x15, 0x04, 0x05, 0x06, 0x0b})
	f.Add([]byte{0xa2, 0x08, 0x3b, 0x19, 0x59, 0x06, 0x1d, 0x33, 0x21, 0x02, 0x39, 0x47, 0x1b})
	en := sixEnsemble(f)
	var sc Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			return
		}
		cut := 1 + int(data[0]&0x0f)%(len(data)-1)
		q := &query.Query{Fragments: []*model.Schema{fuzzSchema("", data[1:cut])}}
		if data[0]&0x10 != 0 {
			half := 1 + (cut-1)/2
			q.Fragments = []*model.Schema{fuzzSchema("", data[1:half]), fuzzSchema("", data[half:cut])}
		}
		if data[0]&0x20 != 0 {
			q.Keywords = []string{"patient"}
		}
		if data[0]&0x80 != 0 {
			q.Keywords = append(q.Keywords, "dob", "hght")
		}
		s := fuzzSchema("fuzz", data[cut:])
		checkFrames(t, "fuzz", q, s, &sc)
		checkKernels(t, "fuzz", en, q, s, &sc)
	})
}
