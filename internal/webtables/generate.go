// Package webtables synthesizes the schema corpus the paper drew from the
// WebTables collection [Cafarella et al., VLDB 2008]: millions of HTML
// tables whose header rows, after filtering, yielded "over 30,000 public
// schemas ... spanning many domains". The real crawl is proprietary, so
// this package generates a statistically comparable substitute — domain-
// templated tables with Zipfian column popularity, lexical noise
// (abbreviations, delimiters, casing), web-scale duplication, and the junk
// the paper's three filter rules remove — plus the filter pipeline itself
// and composite relational/hierarchical schema generators for the
// repository's richer (multi-entity) content.
package webtables

import (
	"fmt"
	"math/rand"
	"strings"

	"schemr/internal/model"
)

// RawTable is one extracted HTML table: its caption and header columns,
// with synthetic provenance.
type RawTable struct {
	Caption string
	Columns []string
	URL     string
}

// Options configures generation. Zero values take the documented defaults.
type Options struct {
	// Seed for the deterministic generator; same seed, same corpus.
	Seed int64
	// NumTables is the number of raw tables to emit (default 10_000).
	NumTables int
	// SingletonProb is the probability that a logical table appears exactly
	// once in the crawl and is therefore removed by the "appeared only once
	// on the web" rule. Default 0.62, which together with the other rules
	// yields a retention in the low single-digit percent, matching the
	// paper's 10M→30k funnel shape.
	SingletonProb float64
	// TrivialProb is the probability of emitting a trivial (≤3 column)
	// table. Default 0.25.
	TrivialProb float64
	// NonAlphaProb is the probability of injecting a non-alphabetic column
	// name (prices with $, footnote markers, years). Default 0.18.
	NonAlphaProb float64
	// ViaHTML renders each table to an HTML snippet and re-extracts it,
	// exercising the full crawl path. Default false (headers direct).
	ViaHTML bool
}

func (o *Options) defaults() {
	if o.NumTables == 0 {
		o.NumTables = 10_000
	}
	if o.SingletonProb == 0 {
		o.SingletonProb = 0.62
	}
	if o.TrivialProb == 0 {
		o.TrivialProb = 0.25
	}
	if o.NonAlphaProb == 0 {
		o.NonAlphaProb = 0.18
	}
}

// Generator produces a deterministic stream of raw tables.
type Generator struct {
	opts Options
	rng  *rand.Rand
	n    int
	// pending copies of the current logical table still to emit.
	pending []RawTable
}

// NewGenerator returns a generator for the given options.
func NewGenerator(opts Options) *Generator {
	opts.defaults()
	return &Generator{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Next returns the next raw table, or ok=false when NumTables have been
// produced. Duplicate copies of a logical table are interleaved into the
// stream as they would be across a crawl only in the sense that the filter
// must not rely on adjacency; for determinism they are emitted
// consecutively.
func (g *Generator) Next() (RawTable, bool) {
	if g.n >= g.opts.NumTables {
		return RawTable{}, false
	}
	if len(g.pending) == 0 {
		g.pending = g.logicalTable()
	}
	t := g.pending[0]
	g.pending = g.pending[1:]
	g.n++
	return t, true
}

// All materializes the remaining stream. Intended for tests and small
// corpora; large runs should loop over Next.
func (g *Generator) All() []RawTable {
	out := make([]RawTable, 0, g.opts.NumTables-g.n)
	for {
		t, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// logicalTable picks a domain archetype, applies the noise model, and
// returns every crawl occurrence of the resulting table (1 for singletons,
// otherwise 2 + geometric). Singleton tables sample diverse column subsets
// and usually carry a page-specific column, so they rarely collide with
// anything else (the long unique tail of the web); duplicated tables
// concentrate on popular column-prefix variants, reproducing the heavy
// head that survives the "appeared more than once" rule.
func (g *Generator) logicalTable() []RawTable {
	r := g.rng
	d := domains[zipf(r, len(domains))]
	a := d.archetypes[r.Intn(len(d.archetypes))]
	singleton := r.Float64() < g.opts.SingletonProb

	var cols []string
	switch {
	case r.Float64() < g.opts.TrivialProb:
		// Trivial table: up to 3 columns sampled from the core.
		n := 1 + r.Intn(3)
		perm := r.Perm(len(a.core))
		for i := 0; i < n && i < len(a.core); i++ {
			cols = append(cols, a.core[perm[i]])
		}
	case singleton:
		// Unique-tail table: random optional subset plus, usually, a column
		// found on no other page.
		cols = append(cols, a.core...)
		perm := r.Perm(len(a.optional))
		nOpt := r.Intn(len(a.optional) + 1)
		for i := 0; i < nOpt; i++ {
			cols = append(cols, a.optional[perm[i]])
		}
		if r.Float64() < 0.8 {
			cols = append(cols, gibberishWord(r))
		}
	default:
		// Popular variant: a prefix of the archetype's optional columns in
		// popularity order, with prefix length geometrically distributed.
		cols = append(cols, a.core...)
		nOpt := 0
		for nOpt < len(a.optional) && r.Float64() < 0.5 {
			nOpt++
		}
		cols = append(cols, a.optional[:nOpt]...)
	}

	style := r.Intn(4) // one lexical style per table, as on real pages
	noisy := make([]string, len(cols))
	for i, c := range cols {
		noisy[i] = g.noise(c, style)
	}
	if r.Float64() < g.opts.NonAlphaProb {
		noisy = append(noisy, nonAlphaColumn(r))
	}

	caption := a.name
	if r.Intn(3) == 0 {
		caption = d.name + " " + a.name
	}
	t := RawTable{
		Caption: caption,
		Columns: noisy,
		URL:     fmt.Sprintf("http://example.org/%s/%s/%d", urlSlug(d.name), urlSlug(a.name), r.Intn(1_000_000)),
	}
	if g.opts.ViaHTML {
		extracted := ExtractTables(RenderHTML(t))
		if len(extracted) == 1 {
			extracted[0].URL = t.URL
			t = extracted[0]
		}
	}

	copies := 1
	if !singleton {
		copies = 2
		for r.Float64() < 0.55 && copies < 60 {
			copies++
		}
	}
	out := make([]RawTable, copies)
	for i := range out {
		out[i] = t
		if i > 0 {
			out[i].URL = fmt.Sprintf("%s?mirror=%d", t.URL, i)
		}
	}
	return out
}

// noise applies one lexical style to a column name: 0 = spaces as-is,
// 1 = snake_case, 2 = camelCase, 3 = Title Case; plus random abbreviation.
func (g *Generator) noise(col string, style int) string {
	r := g.rng
	words := strings.Fields(col)
	for i, w := range words {
		if abbr, ok := abbreviations[w]; ok && r.Float64() < 0.3 {
			words[i] = abbr
		}
	}
	switch style {
	case 1:
		return strings.Join(words, "_")
	case 2:
		for i := 1; i < len(words); i++ {
			words[i] = title(words[i])
		}
		return strings.Join(words, "")
	case 3:
		for i := range words {
			words[i] = title(words[i])
		}
		return strings.Join(words, " ")
	default:
		return strings.Join(words, " ")
	}
}

// gibberishWord fabricates a plausible page-specific column name (all
// letters, so it passes the non-alphabetic rule and is removed by the
// singleton rule instead, as on the real web).
func gibberishWord(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 4 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func nonAlphaColumn(r *rand.Rand) string {
	junk := []string{"price ($)", "% change", "rank #", "2008", "q1 2009", "value*", "total:", "col1", "pop. (000s)"}
	return junk[r.Intn(len(junk))]
}

// zipf picks an index in [0,n) with probability ∝ 1/(i+1) — a light Zipf
// over the domain list so some domains dominate the crawl, as on the web.
func zipf(r *rand.Rand, n int) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	x := r.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

func urlSlug(s string) string {
	return strings.ReplaceAll(s, " ", "-")
}

// GenerateRelational produces n multi-entity relational schemas: 2–5
// archetypes of one domain combined as tables with foreign keys from later
// entities to the first ("hub") entity. These model the curated reference
// schemas organizations share through the repository, and give the
// tightness-of-fit measurement real FK structure to traverse.
func GenerateRelational(seed int64, n int) []*model.Schema {
	r := rand.New(rand.NewSource(seed))
	out := make([]*model.Schema, 0, n)
	for i := 0; i < n; i++ {
		d := domains[r.Intn(len(domains))]
		nEnt := 2 + r.Intn(min(4, len(d.archetypes)))
		perm := r.Perm(len(d.archetypes))
		s := &model.Schema{
			Name:        fmt.Sprintf("%s model %d", d.name, i),
			Description: fmt.Sprintf("reference %s schema", d.name),
			Format:      "ddl",
			Source:      "generated:relational",
		}
		for j := 0; j < nEnt && j < len(d.archetypes); j++ {
			a := d.archetypes[perm[j]]
			ent := &model.Entity{Name: strings.ReplaceAll(a.name, " ", "_")}
			idCol := ent.Name + "_id"
			ent.Attributes = append(ent.Attributes, &model.Attribute{Name: idCol, Type: "INT", Nullable: false})
			ent.PrimaryKey = []string{idCol}
			for _, c := range a.core {
				name := strings.ReplaceAll(c, " ", "_")
				if ent.Attribute(name) == nil {
					ent.Attributes = append(ent.Attributes, &model.Attribute{Name: name, Type: sqlType(r)})
				}
			}
			nOpt := r.Intn(len(a.optional) + 1)
			operm := r.Perm(len(a.optional))
			for k := 0; k < nOpt; k++ {
				name := strings.ReplaceAll(a.optional[operm[k]], " ", "_")
				if ent.Attribute(name) == nil {
					ent.Attributes = append(ent.Attributes, &model.Attribute{Name: name, Type: sqlType(r)})
				}
			}
			s.Entities = append(s.Entities, ent)
			if j > 0 {
				hub := s.Entities[0]
				fkCol := hub.Name + "_ref"
				if ent.Attribute(fkCol) == nil {
					ent.Attributes = append(ent.Attributes, &model.Attribute{Name: fkCol, Type: "INT"})
				}
				s.ForeignKeys = append(s.ForeignKeys, model.ForeignKey{
					FromEntity:  ent.Name,
					FromColumns: []string{fkCol},
					ToEntity:    hub.Name,
					ToColumns:   hub.PrimaryKey,
				})
			}
		}
		out = append(out, s)
	}
	return out
}

// GenerateTangled produces n relational schemas whose entity graphs are
// the awkward cases for structural code: random foreign keys that leave
// disconnected parts and close cycles, a self-reference in every schema,
// and, in the first schema, a chain of 300 entities — longer than any
// hop count a match profile stores exactly.
func GenerateTangled(seed int64, n int) []*model.Schema {
	r := rand.New(rand.NewSource(seed))
	out := make([]*model.Schema, 0, n)
	for i := 0; i < n; i++ {
		size := 2 + r.Intn(12)
		if i == 0 {
			size = 300
		}
		s := &model.Schema{Name: fmt.Sprintf("tangled %d", i), Format: "ddl", Source: "generated:tangled"}
		for j := 0; j < size; j++ {
			d := domains[r.Intn(len(domains))]
			a := d.archetypes[r.Intn(len(d.archetypes))]
			ent := &model.Entity{Name: fmt.Sprintf("%s_%d", strings.ReplaceAll(a.name, " ", "_"), j)}
			for _, c := range a.core {
				ent.Attributes = append(ent.Attributes, &model.Attribute{Name: strings.ReplaceAll(c, " ", "_"), Type: sqlType(r)})
			}
			s.Entities = append(s.Entities, ent)
		}
		link := func(from, to int) {
			f := s.Entities[from]
			s.ForeignKeys = append(s.ForeignKeys, model.ForeignKey{
				FromEntity: f.Name, FromColumns: []string{f.Attributes[0].Name}, ToEntity: s.Entities[to].Name,
			})
		}
		link(0, 0)
		if i == 0 {
			for j := 1; j < size; j++ {
				link(j, j-1)
			}
		} else {
			for k := r.Intn(size + 1); k > 0; k-- {
				link(r.Intn(size), r.Intn(size))
			}
		}
		out = append(out, s)
	}
	return out
}

// GenerateHierarchical produces n XSD-style hierarchical schemas: an entity
// tree of the domain's archetypes linked by containment (Entity.Parent),
// the shape of the corpus's semi-structured schemas.
func GenerateHierarchical(seed int64, n int) []*model.Schema {
	r := rand.New(rand.NewSource(seed))
	out := make([]*model.Schema, 0, n)
	for i := 0; i < n; i++ {
		d := domains[r.Intn(len(domains))]
		s := &model.Schema{
			Name:        fmt.Sprintf("%s document %d", d.name, i),
			Description: fmt.Sprintf("hierarchical %s schema", d.name),
			Format:      "xsd",
			Source:      "generated:hierarchical",
		}
		root := &model.Entity{Name: strings.ReplaceAll(d.name, " ", "") + "Root"}
		s.Entities = append(s.Entities, root)
		nChild := 1 + r.Intn(min(3, len(d.archetypes)))
		perm := r.Perm(len(d.archetypes))
		for j := 0; j < nChild; j++ {
			a := d.archetypes[perm[j]]
			child := &model.Entity{Name: camel(a.name), Parent: root.Name}
			for _, c := range a.core {
				child.Attributes = append(child.Attributes, &model.Attribute{Name: camel(c), Type: "string"})
			}
			s.Entities = append(s.Entities, child)
			// One grandchild level for depth (drill-in experiments need >3).
			if r.Intn(2) == 0 && len(a.optional) >= 3 {
				gc := &model.Entity{Name: camel(a.name) + "Detail", Parent: child.Name}
				for k := 0; k < 3; k++ {
					gc.Attributes = append(gc.Attributes, &model.Attribute{Name: camel(a.optional[k]), Type: "string"})
				}
				s.Entities = append(s.Entities, gc)
			}
		}
		out = append(out, s)
	}
	return out
}

func sqlType(r *rand.Rand) string {
	types := []string{"INT", "VARCHAR(64)", "VARCHAR(255)", "FLOAT", "DATE", "TEXT", "BOOLEAN", "DECIMAL(10,2)"}
	return types[r.Intn(len(types))]
}

func camel(s string) string {
	words := strings.Fields(s)
	for i := 1; i < len(words); i++ {
		words[i] = title(words[i])
	}
	return strings.Join(words, "")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// title upper-cases the first rune of a word (an ASCII-adequate stand-in
// for the deprecated strings.Title, sufficient for template words).
func title(w string) string {
	if w == "" {
		return w
	}
	return strings.ToUpper(w[:1]) + w[1:]
}
