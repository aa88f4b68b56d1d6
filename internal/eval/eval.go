// Package eval is Schemr's evaluation harness. The paper is a
// demonstration paper — its evaluation is qualitative — so this package
// supplies what a reproduction needs to check the claims quantitatively:
// a ground-truth workload generator over a synthetic corpus, standard
// ranking metrics (precision@k, recall@k, MRR, nDCG), ablation pipelines
// isolating each component of the search algorithm, and the probe sets for
// the name matcher's abbreviation / morphology / delimiter claims.
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/text"
)

// Case is one evaluation query with its relevant-schema ground truth.
type Case struct {
	Query    *query.Query
	Relevant map[string]bool
	// Target is the schema the query was derived from (always relevant).
	Target string
}

// WorkloadOptions tunes GenerateWorkload.
type WorkloadOptions struct {
	// N is the number of cases (default 100).
	N int
	// Seed drives all sampling.
	Seed int64
	// MinTerms..MaxTerms bound how many element names each query samples
	// (defaults 3..6).
	MinTerms, MaxTerms int
	// NoiseProb is the chance each sampled term is perturbed
	// (abbreviation, delimiter style, plural); default 0.5.
	NoiseProb float64
	// FragmentProb is the chance a case queries by example: a partially
	// designed schema fragment derived from the target accompanies the
	// keywords, as in the paper's running scenario. Default 0.6.
	FragmentProb float64
	// MinElements skips target schemas smaller than this (default 4).
	MinElements int
}

func (o *WorkloadOptions) defaults() {
	if o.N == 0 {
		o.N = 100
	}
	if o.MinTerms == 0 {
		o.MinTerms = 3
	}
	if o.MaxTerms == 0 {
		o.MaxTerms = 6
	}
	if o.NoiseProb == 0 {
		o.NoiseProb = 0.5
	}
	if o.FragmentProb == 0 {
		o.FragmentProb = 0.6
	}
	if o.MinElements == 0 {
		o.MinElements = 4
	}
}

// GenerateWorkload derives ground-truth query cases from a repository,
// reproducing the paper's search scenario: a designer working on a new
// schema queries with a few keywords and, usually, a partially designed
// fragment of what they are building. Each case samples a target schema,
// derives a degraded fragment of it (a subset of entities and attributes
// with names perturbed the way real users abbreviate and restyle) plus a
// few keyword terms, and marks as relevant the target and every schema
// sharing its structural fingerprint.
func GenerateWorkload(repo *repository.Repository, opts WorkloadOptions) ([]Case, error) {
	opts.defaults()
	r := rand.New(rand.NewSource(opts.Seed))

	// Candidate targets and the fingerprint → ids map for duplicates.
	byPrint := map[string][]string{}
	var targets []string
	for _, s := range repo.All() {
		byPrint[s.Fingerprint()] = append(byPrint[s.Fingerprint()], s.ID)
		if s.NumElements() >= opts.MinElements {
			targets = append(targets, s.ID)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("eval: no schema with at least %d elements", opts.MinElements)
	}

	cases := make([]Case, 0, opts.N)
	for len(cases) < opts.N {
		id := targets[r.Intn(len(targets))]
		s := repo.Get(id)
		els := s.Elements()
		var names []string
		for _, el := range els {
			names = append(names, el.Name)
		}
		k := opts.MinTerms + r.Intn(opts.MaxTerms-opts.MinTerms+1)
		if k > len(names) {
			k = len(names)
		}
		perm := r.Perm(len(names))
		terms := make([]string, 0, k)
		for i := 0; i < k; i++ {
			term := names[perm[i]]
			if r.Float64() < opts.NoiseProb {
				term = Perturb(r, term)
			}
			if strings.TrimSpace(term) != "" {
				terms = append(terms, term)
			}
		}
		q := &query.Query{Keywords: terms}
		if r.Float64() < opts.FragmentProb {
			if frag := deriveFragment(r, s, opts.NoiseProb); frag != nil {
				q.Fragments = append(q.Fragments, frag)
			}
		}
		if len(q.Keywords) < 2 && len(q.Fragments) == 0 {
			continue
		}
		rel := map[string]bool{}
		for _, rid := range byPrint[s.Fingerprint()] {
			rel[rid] = true
		}
		cases = append(cases, Case{Query: q, Relevant: rel, Target: id})
	}
	return cases, nil
}

// deriveFragment builds a partially designed schema from a target: up to
// two of its entities, a handful of attributes each, names perturbed, with
// the foreign keys between the kept parts. Returns nil when the derivation
// degenerates (it must stay a valid schema).
func deriveFragment(r *rand.Rand, s *model.Schema, noiseProb float64) *model.Schema {
	frag := &model.Schema{Name: "fragment", Format: "ddl"}
	nEnt := 1
	if len(s.Entities) > 1 && r.Intn(2) == 0 {
		nEnt = 2
	}
	perm := r.Perm(len(s.Entities))
	entRename := map[string]string{}             // old entity name → new
	attrRename := map[string]map[string]string{} // old entity → old attr → new

	usedEnt := map[string]bool{}
	for i := 0; i < nEnt; i++ {
		src := s.Entities[perm[i]]
		name := src.Name
		if r.Float64() < noiseProb {
			name = Perturb(r, name)
		}
		if name == "" || usedEnt[name] {
			name = src.Name
		}
		if usedEnt[name] {
			continue
		}
		usedEnt[name] = true
		entRename[src.Name] = name
		e := &model.Entity{Name: name}
		nAttr := 2 + r.Intn(4)
		if nAttr > len(src.Attributes) {
			nAttr = len(src.Attributes)
		}
		aperm := r.Perm(len(src.Attributes))
		renames := map[string]string{}
		usedAttr := map[string]bool{}
		for j := 0; j < nAttr; j++ {
			a := src.Attributes[aperm[j]]
			an := a.Name
			if r.Float64() < noiseProb {
				an = Perturb(r, an)
			}
			if an == "" || usedAttr[an] {
				an = a.Name
			}
			if usedAttr[an] {
				continue
			}
			usedAttr[an] = true
			renames[a.Name] = an
			e.Attributes = append(e.Attributes, &model.Attribute{Name: an, Type: a.Type})
		}
		if len(e.Attributes) == 0 {
			continue
		}
		attrRename[src.Name] = renames
		frag.Entities = append(frag.Entities, e)
	}
	if len(frag.Entities) == 0 {
		return nil
	}
	// Keep foreign keys whose endpoints and columns all survived.
	for _, fk := range s.ForeignKeys {
		fromNew, okF := entRename[fk.FromEntity]
		toNew, okT := entRename[fk.ToEntity]
		if !okF || !okT {
			continue
		}
		var fromCols []string
		ok := true
		for _, c := range fk.FromColumns {
			nc, found := attrRename[fk.FromEntity][c]
			if !found {
				ok = false
				break
			}
			fromCols = append(fromCols, nc)
		}
		if !ok {
			continue
		}
		var toCols []string
		for _, c := range fk.ToColumns {
			nc, found := attrRename[fk.ToEntity][c]
			if !found {
				ok = false
				break
			}
			toCols = append(toCols, nc)
		}
		if !ok {
			continue
		}
		frag.ForeignKeys = append(frag.ForeignKeys, model.ForeignKey{
			FromEntity: fromNew, FromColumns: fromCols,
			ToEntity: toNew, ToColumns: toCols,
		})
	}
	if frag.Validate() != nil {
		return nil
	}
	return frag
}

// abbrev maps full words to common header abbreviations; Perturb draws from
// it.
var abbrev = map[string]string{
	"patient": "pt", "height": "hght", "weight": "wt", "gender": "gndr",
	"diagnosis": "dx", "doctor": "dr", "number": "num", "quantity": "qty",
	"address": "addr", "department": "dept", "employee": "emp",
	"customer": "cust", "account": "acct", "transaction": "txn",
	"amount": "amt", "temperature": "temp", "latitude": "lat",
	"longitude": "lon", "population": "pop", "manager": "mgr",
	"description": "desc", "category": "cat", "reference": "ref",
	"student": "stu", "average": "avg", "minimum": "min", "maximum": "max",
}

// Perturb applies one user-style perturbation to a term: abbreviation,
// delimiter restyle, pluralization, or word drop for multi-word names.
func Perturb(r *rand.Rand, term string) string {
	words := text.Tokenize(term)
	if len(words) == 0 {
		return term
	}
	switch r.Intn(4) {
	case 0: // abbreviate a word if possible
		for i, w := range words {
			if a, ok := abbrev[w]; ok {
				words[i] = a
				break
			}
		}
		return strings.Join(words, " ")
	case 1: // restyle delimiters
		styles := []string{"_", "", "-"}
		sep := styles[r.Intn(len(styles))]
		if sep == "" { // camelCase
			for i := 1; i < len(words); i++ {
				words[i] = strings.ToUpper(words[i][:1]) + words[i][1:]
			}
		}
		return strings.Join(words, sep)
	case 2: // pluralize / singularize the last word
		last := words[len(words)-1]
		if strings.HasSuffix(last, "s") {
			words[len(words)-1] = strings.TrimSuffix(last, "s")
		} else {
			words[len(words)-1] = last + "s"
		}
		return strings.Join(words, " ")
	default: // drop a word from multi-word names
		if len(words) > 1 {
			i := r.Intn(len(words))
			words = append(words[:i], words[i+1:]...)
		}
		return strings.Join(words, " ")
	}
}

// Ranking is an ordered list of schema IDs, best first.
type Ranking []string

// PrecisionAtK is the fraction of the top k that are relevant (k capped at
// the ranking length; empty rankings score 0).
func PrecisionAtK(r Ranking, rel map[string]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	n := k
	if len(r) < n {
		n = len(r)
	}
	if n == 0 {
		return 0
	}
	hits := 0
	for _, id := range r[:n] {
		if rel[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// relevantCount counts the entries marked relevant. The map may carry
// explicit false entries (a caller annotating judged-irrelevant results);
// only true ones are relevant, so denominators must never use len(rel).
func relevantCount(rel map[string]bool) int {
	n := 0
	for _, v := range rel {
		if v {
			n++
		}
	}
	return n
}

// RecallAtK is the fraction of relevant schemas found in the top k.
func RecallAtK(r Ranking, rel map[string]bool, k int) float64 {
	total := relevantCount(rel)
	if total == 0 {
		return 0
	}
	n := k
	if len(r) < n {
		n = len(r)
	}
	hits := 0
	for _, id := range r[:n] {
		if rel[id] {
			hits++
		}
	}
	return float64(hits) / float64(total)
}

// ReciprocalRank is 1/rank of the first relevant result, 0 if none appears.
func ReciprocalRank(r Ranking, rel map[string]bool) float64 {
	for i, id := range r {
		if rel[id] {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// NDCGAtK is the normalized discounted cumulative gain at k with binary
// relevance.
func NDCGAtK(r Ranking, rel map[string]bool, k int) float64 {
	total := relevantCount(rel)
	if total == 0 || k <= 0 {
		return 0
	}
	n := k
	if len(r) < n {
		n = len(r)
	}
	dcg := 0.0
	for i := 0; i < n; i++ {
		if rel[r[i]] {
			dcg += 1 / math.Log2(float64(i)+2)
		}
	}
	// The ideal ranking places every truly relevant schema first; sizing it
	// from len(rel) would count entries explicitly marked false as
	// relevant, deflating nDCG (and an all-false map would divide by zero).
	ideal := 0.0
	m := total
	if m > k {
		m = k
	}
	for i := 0; i < m; i++ {
		ideal += 1 / math.Log2(float64(i)+2)
	}
	return dcg / ideal
}

// Metrics aggregates ranking quality over a workload.
type Metrics struct {
	P1, P5, R10, MRR, NDCG10 float64
	N                        int
}

// String renders one report row.
func (m Metrics) String() string {
	return fmt.Sprintf("P@1=%.3f P@5=%.3f R@10=%.3f MRR=%.3f nDCG@10=%.3f (n=%d)",
		m.P1, m.P5, m.R10, m.MRR, m.NDCG10, m.N)
}

// Ranker produces a ranking for one case.
type Ranker func(c Case) Ranking

// Evaluate runs a ranker over a workload and averages the metrics.
func Evaluate(rank Ranker, cases []Case) Metrics {
	var m Metrics
	for _, c := range cases {
		r := rank(c)
		m.P1 += PrecisionAtK(r, c.Relevant, 1)
		m.P5 += PrecisionAtK(r, c.Relevant, 5)
		m.R10 += RecallAtK(r, c.Relevant, 10)
		m.MRR += ReciprocalRank(r, c.Relevant)
		m.NDCG10 += NDCGAtK(r, c.Relevant, 10)
	}
	n := float64(len(cases))
	if n > 0 {
		m.P1 /= n
		m.P5 /= n
		m.R10 /= n
		m.MRR /= n
		m.NDCG10 /= n
	}
	m.N = len(cases)
	return m
}

// Probe is one lexical-robustness test: a query term, the element name it
// should match, and decoy names it must beat.
type Probe struct {
	Term   string
	Target string
	Decoys []string
}

// ProbeFamilies names the three robustness claims of the paper's name
// matcher.
var ProbeFamilies = []string{"abbreviation", "morphology", "delimiter"}

// GenerateProbes builds n probes of a family. Targets come from a fixed
// vocabulary of schema-ish names; decoys are other vocabulary entries.
func GenerateProbes(family string, n int, seed int64) ([]Probe, error) {
	r := rand.New(rand.NewSource(seed))
	vocabulary := probeVocabulary()
	var out []Probe
	for len(out) < n {
		target := vocabulary[r.Intn(len(vocabulary))]
		var term string
		switch family {
		case "abbreviation":
			words := strings.Fields(target)
			changed := false
			for i, w := range words {
				if a, ok := abbrev[w]; ok {
					words[i] = a
					changed = true
				}
			}
			if !changed {
				continue
			}
			term = strings.Join(words, " ")
		case "morphology":
			words := strings.Fields(target)
			last := words[len(words)-1]
			if strings.HasSuffix(last, "s") {
				words[len(words)-1] = strings.TrimSuffix(last, "s")
			} else {
				words[len(words)-1] = last + "s"
			}
			term = strings.Join(words, " ")
		case "delimiter":
			words := strings.Fields(target)
			if len(words) < 2 {
				continue
			}
			switch r.Intn(3) {
			case 0:
				term = strings.Join(words, "_")
			case 1:
				term = strings.Join(words, "-")
			default:
				for i := 1; i < len(words); i++ {
					words[i] = strings.ToUpper(words[i][:1]) + words[i][1:]
				}
				term = strings.Join(words, "")
			}
		default:
			return nil, fmt.Errorf("eval: unknown probe family %q (want one of %v)", family, ProbeFamilies)
		}
		p := Probe{Term: term, Target: target}
		// Adversarial decoys first: vocabulary entries sharing a word with
		// the target (e.g. "patient weight" against target "patient
		// height") — these defeat naive token overlap.
		targetWords := map[string]bool{}
		for _, w := range strings.Fields(target) {
			targetWords[w] = true
		}
		var hard []string
		for _, v := range vocabulary {
			if v == target {
				continue
			}
			for _, w := range strings.Fields(v) {
				if targetWords[w] {
					hard = append(hard, v)
					break
				}
			}
		}
		for _, h := range hard {
			if len(p.Decoys) >= 2 {
				break
			}
			p.Decoys = append(p.Decoys, h)
		}
		for len(p.Decoys) < 5 {
			d := vocabulary[r.Intn(len(vocabulary))]
			if d != target {
				p.Decoys = append(p.Decoys, d)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// probeVocabulary lists realistic multi-word schema element names.
func probeVocabulary() []string {
	return []string{
		"patient height", "patient weight", "blood pressure", "heart rate",
		"date of birth", "emergency contact", "insurance number", "primary diagnosis",
		"order quantity", "unit price", "shipping address", "billing address",
		"customer name", "account balance", "transaction amount", "payment method",
		"student grade", "course credits", "enrollment date", "department head",
		"employee salary", "manager name", "hire date", "office location",
		"species count", "observation date", "water temperature", "site latitude",
		"site longitude", "average rainfall", "wind speed", "population density",
		"team wins", "player position", "game attendance", "season record",
		"book title", "publication year", "member address", "due date",
		"flight number", "departure time", "arrival gate", "seat capacity",
		"meter reading", "power capacity", "fuel type", "energy usage",
		"crop yield", "field acres", "soil type", "harvest date",
		"permit status", "application fee", "budget amount", "fiscal year",
		"server hostname", "ip address", "disk capacity", "incident severity",
	}
}

// Similarity is a name-similarity function under test (the name matcher's
// Similarity, or a baseline).
type Similarity func(a, b string) float64

// ProbeHitRate runs probes against a similarity function: a hit means the
// target outscores every decoy. It returns the hit rate and the mean
// target-vs-best-decoy margin.
func ProbeHitRate(sim Similarity, probes []Probe) (hitRate, margin float64) {
	if len(probes) == 0 {
		return 0, 0
	}
	hits := 0
	totalMargin := 0.0
	for _, p := range probes {
		ts := sim(p.Term, p.Target)
		best := 0.0
		for _, d := range p.Decoys {
			if v := sim(p.Term, d); v > best {
				best = v
			}
		}
		if ts > best {
			hits++
		}
		totalMargin += ts - best
	}
	return float64(hits) / float64(len(probes)), totalMargin / float64(len(probes))
}

// ExactTokenSimilarity is the baseline the name matcher is compared
// against: Jaccard overlap of exact normalized tokens (no sub-word
// matching).
func ExactTokenSimilarity(a, b string) float64 {
	return text.JaccardTokens(text.Tokenize(a), text.Tokenize(b))
}
