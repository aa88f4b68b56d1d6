package match

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
)

// The oracle: the map-based gram kernel the sorted-vector one replaced —
// n-gram frequency maps, Dice coefficient against down-weighted overlap
// coefficient. Kept here only, as the reference the kernel and the memoised
// paths must equal bit for bit.

func oracleGrams(norm string, maxGram int) map[string]int {
	set := map[string]int{}
	for _, g := range text.NGrams(norm, 1, min(len([]rune(norm)), maxGram)) {
		set[g]++
	}
	return set
}

func oracleSim(na, nb string, maxGram int) float64 {
	a, b := oracleGrams(na, maxGram), oracleGrams(nb, maxGram)
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, sizeA, sizeB := 0, 0, 0
	for _, c := range a {
		sizeA += c
	}
	for g, cb := range b {
		sizeB += cb
		inter += min(a[g], cb)
	}
	dice := 2 * float64(inter) / float64(sizeA+sizeB)
	if overlap := 0.8 * (float64(inter) / float64(min(sizeA, sizeB))); overlap > dice {
		return overlap
	}
	return dice
}

// oracleSoftJaccard is the context matcher's set similarity over raw term
// strings, scored by oracleSim.
func oracleSoftJaccard(a, b []string, minTermSim float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sim := func(x, y string) float64 {
		return oracleSim(text.Normalize(x), text.Normalize(y), defaultMaxGram)
	}
	total := 0.0
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			best = max(best, sim(ta, tb))
		}
		if best >= minTermSim {
			total += best
		}
	}
	for _, tb := range b {
		best := 0.0
		for _, ta := range a {
			best = max(best, sim(ta, tb))
		}
		if best >= minTermSim {
			total += best
		}
	}
	return total / float64(len(a)+len(b))
}

// oracleMatrices scores q against s the slow way: the name matrix and the
// context matrix, cell by cell, from raw strings.
func oracleMatrices(q *query.Query, s *model.Schema) (name, ctx *Matrix) {
	qe, se := q.Elements(), s.Elements()
	name, ctx = NewMatrix(qe, se), NewMatrix(qe, se)
	sCtx := contextSets(s)
	for qi, qel := range qe {
		for si, sel := range se {
			name.Set(qi, si, oracleSim(text.Normalize(qel.Name), text.Normalize(sel.Name), defaultMaxGram))
			switch {
			case qel.IsKeyword():
			case qel.Kind != sel.Kind:
				ctx.Set(qi, si, 0)
			default:
				qCtx := contextSets(q.Fragments[qel.Fragment])[qel.Ref]
				ctx.Set(qi, si, oracleSoftJaccard(qCtx, sCtx[sel.Ref], NewContextMatcher().minTermSim))
			}
		}
	}
	return name, ctx
}

// nameGen draws element names that stress the kernel: a small shared
// vocabulary (so names repeat within and across schemas), delimiter and case
// variants, empty and all-delimiter names, non-ASCII runes, runs of one
// character, and names well past the 32-rune gram cap.
type nameGen struct{ rng *rand.Rand }

var genVocab = []string{"id", "patient", "pt_hght", "patientHeight", "height", "diagnosis",
	"diagnoses", "order date", "ORDER_DATE", "qty", "quantity", "größe", "名前", "naïve_café", "", "__", "a"}

func (g nameGen) name() string {
	switch g.rng.Intn(10) {
	case 0, 1, 2, 3:
		return genVocab[g.rng.Intn(len(genVocab))]
	case 4:
		return genVocab[g.rng.Intn(len(genVocab))] + "_" + genVocab[g.rng.Intn(len(genVocab))]
	case 5:
		n := 1 + g.rng.Intn(50)
		r := []rune("aab日")[g.rng.Intn(4)]
		out := make([]rune, n)
		for i := range out {
			out[i] = r
		}
		return string(out)
	}
	alphabet := []rune("abcdeéß日xyz019_ -")
	n := g.rng.Intn(12)
	if g.rng.Intn(6) == 0 {
		n = 33 + g.rng.Intn(40) // longer than the gram cap
	}
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[g.rng.Intn(len(alphabet))]
	}
	return string(out)
}

func (g nameGen) schema(id string) *model.Schema {
	s := &model.Schema{ID: id, Name: id}
	for e := 0; e < 1+g.rng.Intn(3); e++ {
		ent := &model.Entity{Name: fmt.Sprintf("%s%d", g.name(), e)}
		for a := 0; a < g.rng.Intn(6); a++ {
			ent.Attributes = append(ent.Attributes, &model.Attribute{Name: g.name()})
		}
		s.Entities = append(s.Entities, ent)
	}
	for e := 1; e < len(s.Entities); e++ {
		if g.rng.Intn(2) == 0 {
			s.ForeignKeys = append(s.ForeignKeys, model.ForeignKey{FromEntity: s.Entities[e].Name, ToEntity: s.Entities[e-1].Name})
		}
	}
	return s
}

func (g nameGen) query() *query.Query {
	q := &query.Query{}
	for k := 0; k < g.rng.Intn(4); k++ {
		q.Keywords = append(q.Keywords, g.name())
	}
	if len(q.Keywords) == 0 || g.rng.Intn(2) == 0 {
		q.Fragments = append(q.Fragments, g.schema("frag"))
	}
	return q
}

// TestGramKernelMatchesOracle: the sorted-vector kernel equals the map
// oracle bit for bit, at the default cap and at caps small enough to bite.
func TestGramKernelMatchesOracle(t *testing.T) {
	g := nameGen{rand.New(rand.NewSource(41))}
	for _, maxGram := range []int{defaultMaxGram, 3, 1} {
		nm := &NameMatcher{maxGram: maxGram}
		for i := 0; i < 1500; i++ {
			a, b := g.name(), g.name()
			na, nb := text.Normalize(a), text.Normalize(b)
			want := oracleSim(na, nb, maxGram)
			if got := gramSim(newNameEntry(na, maxGram), newNameEntry(nb, maxGram)); got != want {
				t.Fatalf("cap %d: gramSim(%q, %q) = %v, oracle %v", maxGram, na, nb, got, want)
			}
			if got := nm.Similarity(a, b); got != want {
				t.Fatalf("cap %d: Similarity(%q, %q) = %v, oracle %v", maxGram, a, b, got, want)
			}
		}
	}
}

func sameMatrix(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	for i := range want.Scores {
		for j := range want.Scores[i] {
			if got.Scores[i][j] != want.Scores[i][j] {
				t.Fatalf("%s cell (%d,%d) %q × %q: %v, oracle %v", label, i, j,
					want.Query[i].Name, want.Schema[j].Name, got.Scores[i][j], want.Scores[i][j])
			}
		}
	}
}

// TestMemoisedMatchMatchesOracle: the profiled name and context matrices —
// interned entries, memoised pairs, each query scored against several
// schemas so the memo is cold, then warm — and the unprofiled ones on
// throwaway entries all equal the oracle bit for bit.
func TestMemoisedMatchMatchesOracle(t *testing.T) {
	g := nameGen{rand.New(rand.NewSource(43))}
	nm, cm := NewNameMatcher(), NewContextMatcher()
	var schemas []*model.Schema
	var profiles []*Profile
	for i := 0; i < 12; i++ {
		schemas = append(schemas, g.schema(fmt.Sprintf("s%d", i)))
		profiles = append(profiles, NewProfile(schemas[i]))
	}
	for qi := 0; qi < 25; qi++ {
		q := g.query()
		qa := NewQueryArtifacts(q)
		for pass := 0; pass < 2; pass++ {
			for i, p := range profiles {
				s := schemas[i]
				wantName, wantCtx := oracleMatrices(q, s)
				label := fmt.Sprintf("q%d %s pass %d", qi, s.ID, pass)
				sameMatrix(t, label+" name profiled", nm.MatchProfiled(qa, p), wantName)
				sameMatrix(t, label+" context profiled", cm.MatchProfiled(qa, p), wantCtx)
				if pass == 0 {
					sameMatrix(t, label+" name", nm.Match(q, s), wantName)
					sameMatrix(t, label+" context", cm.Match(q, s), wantCtx)
				}
			}
		}
		if hits, misses := qa.MemoStats(); hits == 0 || misses == 0 {
			t.Fatalf("q%d: memo hits %d misses %d; both passes should register", qi, hits, misses)
		}
	}
}

// TestInternSharesAndLooksUp: two schemas using one name share one entry,
// and query artifacts reuse interned entries without adding any.
func TestInternSharesAndLooksUp(t *testing.T) {
	a := NewProfile(&model.Schema{ID: "a", Entities: []*model.Entity{{Name: "Shared_Intern_Probe"}}})
	before := InternedNames()
	b := NewProfile(&model.Schema{ID: "b", Entities: []*model.Entity{{Name: "sharedInternProbe"}}})
	if a.names[0] != b.names[0] {
		t.Fatalf("one normalized name interned twice: %d and %d", a.names[0], b.names[0])
	}
	qa := NewQueryArtifacts(&query.Query{Keywords: []string{"shared intern probe", "never-interned-probe-zqx"}})
	if qa.names[0] != names.resolve(nil, a.names)[0] {
		t.Fatal("query artifacts rebuilt an interned name's entry")
	}
	if got := InternedNames(); got != before {
		t.Fatalf("interned names grew %d -> %d without a new schema name", before, got)
	}
}

// TestInternConcurrent hammers intern, lookup and the memo from many
// goroutines (meaningful under -race): IDs must be stable and unique.
func TestInternConcurrent(t *testing.T) {
	q := &query.Query{Keywords: []string{"concurrent", "intern"}}
	qa := NewQueryArtifacts(q)
	var wg sync.WaitGroup
	ids := make([][]nameID, 8)
	for w := range ids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := &model.Schema{ID: "c", Entities: []*model.Entity{{Name: fmt.Sprintf("concurrent_intern_%d", i)}}}
				p := NewProfile(s)
				ids[w] = append(ids[w], p.names[0])
				NewNameMatcher().MatchProfiled(qa, p)
				NewQueryArtifacts(q)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(ids); w++ {
		for i := range ids[w] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d saw ID %d for name %d, worker 0 saw %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
}

// TestMatchProfiledWarmAllocs: a warm profiled name match on fresh memory
// allocates the scratch, the name-pair table, the matrix with its flat
// scores and row headers, nothing per cell; and a whole-ensemble match
// into a warm scratch allocates nothing at all.
func TestMatchProfiledWarmAllocs(t *testing.T) {
	q, err := query.Parse(query.Input{Keywords: "patient height gender diagnosis",
		DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8), diagnosis VARCHAR(32));"})
	if err != nil {
		t.Fatal(err)
	}
	nm := NewNameMatcher()
	qa, p := NewQueryArtifacts(q), NewProfile(clinicCandidate())
	nm.MatchProfiled(qa, p) // fill the memo
	const ceiling = 5       // scratch, table, grid, flat scores, row headers
	if allocs := testing.AllocsPerRun(100, func() { nm.MatchProfiled(qa, p) }); allocs > ceiling {
		t.Fatalf("warm NameMatcher.MatchProfiled allocates %v times per run (%d cells), ceiling %d",
			allocs, len(qa.Elements())*len(p.Elements()), ceiling)
	}
	var sc Scratch
	for _, en := range []*Ensemble{DefaultEnsemble(), ExtendedEnsemble()} {
		en.MatchInto(&sc, qa, p) // grow the scratch
		if allocs := testing.AllocsPerRun(100, func() { en.MatchInto(&sc, qa, p) }); allocs > 0 {
			t.Fatalf("%v: warm Ensemble.MatchInto allocates %v times per run", en.MatcherNames(), allocs)
		}
	}
}

// multisetOracle returns the multiset intersection size and both masses of
// two names' n-gram multisets — every substring of 1..maxGram runes —
// counted in maps keyed by the gram bytes.
func multisetOracle(a, b string, maxGram int) (inter, massA, massB int) {
	grams := func(s string) map[string]int {
		r := []rune(s)
		m := map[string]int{}
		for l := 1; l <= len(r) && l <= maxGram; l++ {
			for i := 0; i+l <= len(r); i++ {
				m[string(r[i:i+l])]++
			}
		}
		return m
	}
	ga, gb := grams(a), grams(b)
	for g, ca := range ga {
		massA += ca
		inter += min(ca, gb[g])
	}
	for _, cb := range gb {
		massB += cb
	}
	return inter, massA, massB
}

// TestSharedMassMatchesMultisetOracle: the integer-keyed merge, early exit
// included, equals a map-based multiset intersection over random ASCII and
// non-ASCII names (up to 4-byte runes), with many pairs sharing 8+ leading
// bytes and differing only past the seventh — where grams tie on their keys
// and the tails decide — and every entry's gram vector is strictly
// ascending by (byte length, bytes) under keys that match its bytes.
func TestSharedMassMatchesMultisetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	alphabets := [][]rune{[]rune("abc_"), []rune("abcdefghij"), []rune("aéß日ü€z"), []rune("日本語名前"), []rune("a😀é𝄞")}
	word := func(n int) string {
		al := alphabets[rng.Intn(len(alphabets))]
		r := make([]rune, n)
		for i := range r {
			r[i] = al[rng.Intn(len(al))]
		}
		return string(r)
	}
	sorted := func(e *nameEntry) {
		t.Helper()
		keys, meta := e.split()
		at := func(i int) string {
			off := uint32(meta[i] >> 32)
			return e.norm[off : off+uint32(keys[i]>>56)]
		}
		for i := range keys {
			if keys[i] != gramKey(at(i)) {
				t.Fatalf("%q: gram %q carries key %x", e.norm, at(i), keys[i])
			}
		}
		for i := 1; i < len(keys); i++ {
			ps, gs := at(i-1), at(i)
			if len(ps) > len(gs) || len(ps) == len(gs) && ps >= gs {
				t.Fatalf("%q: grams %q, %q out of order", e.norm, ps, gs)
			}
		}
	}
	longTies := 0
	for i := 0; i < 3000; i++ {
		var a, b string
		switch i % 3 {
		case 0: // independent names
			a, b = word(rng.Intn(40)), word(rng.Intn(40))
		case 1: // shared prefix of at least 8 bytes, independent tails
			prefix := word(8 + rng.Intn(12))
			for len(prefix) < 8 {
				prefix += word(1)
			}
			a, b = prefix+word(rng.Intn(12)), prefix+word(rng.Intn(12))
		case 2: // one rune changed somewhere past byte 7
			r := []rune(word(9 + rng.Intn(30)))
			a = string(r)
			for k := len(r) - 1; k > 0 && len(string(r[:k])) >= 8; k-- {
				if rng.Intn(3) == 0 {
					r[k] = []rune("xé日")[rng.Intn(3)]
					break
				}
			}
			b = string(r)
		}
		ea, eb := newNameEntry(a, defaultMaxGram), newNameEntry(b, defaultMaxGram)
		sorted(ea)
		sorted(eb)
		inter, ma, mb := multisetOracle(a, b, defaultMaxGram)
		if ma != ea.mass || mb != eb.mass {
			t.Fatalf("%q, %q: masses %d, %d; oracle %d, %d", a, b, ea.mass, eb.mass, ma, mb)
		}
		if got := sharedMass(ea, eb); got != inter {
			t.Fatalf("sharedMass(%q, %q) = %d, oracle %d", a, b, got, inter)
		}
		if got, want := gramSim(ea, eb), oracleSim(a, b, defaultMaxGram); got != want {
			t.Fatalf("gramSim(%q, %q) = %v, oracle %v", a, b, got, want)
		}
		if i%3 != 0 && len(a) > 8 {
			longTies++
		}
	}
	if longTies < 1000 {
		t.Fatalf("only %d pairs exercised key ties past byte 7", longTies)
	}
}
