package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"schemr"
	"schemr/internal/ddl"
	"schemr/internal/eval"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
	"schemr/internal/webtables"
)

// poolQuery is one search the benchmark sends: the text a designer would
// type and paste, plus the ground truth eval.GenerateWorkload attached.
type poolQuery struct {
	Keywords string   `json:"q"`
	DDL      string   `json:"ddl,omitempty"`
	Relevant []string `json:"relevant"`
	// Format is the target schema's format, the stratum the pool quota is
	// filled by.
	Format string `json:"format"`
}

// importDoc is one schema the write traffic imports. Token is a single
// letters-only word unique to the document: it names one of the schema's
// columns, so a keyword search for it ranks exactly this schema once it is
// indexed (a word in the schema's title alone reaches phase 1 but matches
// no element, and a schema with no matched element is not ranked).
type importDoc struct {
	Name  string `json:"name"`
	DDL   string `json:"ddl"`
	Token string `json:"token"`
}

// seedData is the searches a run sends, generated from the seed alone. It
// is stored beside the seed data directory so a run that finds both on disk
// never loads the corpus into its own heap.
type seedData struct {
	Seed     int64       `json:"seed"`
	Schemas  int         `json:"schemas"`
	Fragment []poolQuery `json:"fragment"`
	Keyword  []poolQuery `json:"keyword"`
}

const (
	seedDataFile = "inputs.json"
	seedDataDir  = "data"
)

// Share of each target format in a query pool, fixed so that every seed
// draws the same mix of cheap (flat web table) and expensive (multi-entity
// DDL, hierarchical XSD) searches; the shares are those of the corpus. An
// unstratified pool of a few hundred queries moves every latency metric by
// several percent from seed to seed through this mix alone.
var poolShare = []struct {
	format string
	share  float64
}{{"webtable", 0.85}, {"ddl", 0.10}, {"xsd", 0.05}}

// ensureSeed returns the seed data directory and inputs for (seed, n),
// building them under root on first use. The directory is a pure function
// of the seed, the sizes and the checked-out code, so later runs of the
// same checkout reuse it; set-up time is measured from the copy onwards and
// never includes this step.
func ensureSeed(root string, seed int64, n, fragments, keywords int) (dir string, data *seedData, err error) {
	dir = filepath.Join(root, fmt.Sprintf("seed%d-n%d-f%d-k%d", seed, n, fragments, keywords))
	if data, err = loadSeedData(dir); err == nil {
		return dir, data, nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	tmp, err := os.MkdirTemp(root, "building-")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(tmp)
	if data, err = buildSeed(tmp, seed, n, fragments, keywords); err != nil {
		return "", nil, err
	}
	// Rename last: a directory with this name is always complete.
	os.RemoveAll(dir)
	if err := os.Rename(tmp, dir); err != nil {
		return "", nil, err
	}
	return dir, data, nil
}

func loadSeedData(dir string) (*seedData, error) {
	raw, err := os.ReadFile(filepath.Join(dir, seedDataFile))
	if err != nil {
		return nil, err
	}
	var data seedData
	if err := json.Unmarshal(raw, &data); err != nil {
		return nil, err
	}
	return &data, nil
}

// buildCorpus fills an in-memory system with n schemas: a tenth
// multi-entity relational, a twentieth hierarchical, the rest flat web
// tables. The web tables pass the paper's non-alphabetic and trivial-table
// rules and are deduplicated; the "appeared only once" rule is not applied,
// because retaining 17 000 schemas under it needs a 700 000-table crawl that
// takes 20 s to generate and filter, more than a whole run may last.
func buildCorpus(seed int64, n int) (*schemr.System, error) {
	sys := schemr.New()
	put := func(s *model.Schema) error {
		_, _, err := sys.Repo.PutDedup(s)
		return err
	}
	for _, s := range webtables.GenerateRelational(seed, n/10) {
		if err := put(s); err != nil {
			return nil, err
		}
	}
	for _, s := range webtables.GenerateHierarchical(seed+1, n/20) {
		if err := put(s); err != nil {
			return nil, err
		}
	}
	pipe := webtables.NewPipeline()
	for crawl := seed + 2; sys.Repo.Len() < n; crawl += 7919 {
		gen := webtables.NewGenerator(webtables.Options{Seed: crawl, NumTables: 6 * n})
		for sys.Repo.Len() < n {
			t, ok := gen.Next()
			if !ok {
				break
			}
			if len(t.Columns) <= 3 || !allAlphabetic(t.Columns) {
				continue
			}
			if err := put(pipe.ToSchema(t)); err != nil {
				return nil, err
			}
		}
	}
	if err := sys.Engine.Reindex(); err != nil {
		return nil, err
	}
	return sys, nil
}

func allAlphabetic(cols []string) bool {
	for _, c := range cols {
		if !text.IsAlphabetic(c) {
			return false
		}
	}
	return true
}

func buildSeed(dir string, seed int64, n, fragments, keywords int) (*seedData, error) {
	sys, err := buildCorpus(seed, n)
	if err != nil {
		return nil, err
	}
	if err := sys.Save(filepath.Join(dir, seedDataDir)); err != nil {
		return nil, err
	}
	data := &seedData{Seed: seed, Schemas: sys.Repo.Len()}
	if data.Fragment, err = buildPool(sys, seed, fragments, true); err != nil {
		return nil, err
	}
	if data.Keyword, err = buildPool(sys, seed+1, keywords, false); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(data)
	if err != nil {
		return nil, err
	}
	return data, os.WriteFile(filepath.Join(dir, seedDataFile), raw, 0o644)
}

// buildPool draws ground-truth cases from eval.GenerateWorkload and keeps
// the first that fill each format's quota, rendering each query graph back
// to the text the HTTP API takes. A case whose rendered text the query
// parser would refuse is dropped here, so no request can fail on its input.
func buildPool(sys *schemr.System, seed int64, size int, fragments bool) ([]poolQuery, error) {
	fragmentProb := 1.0
	if !fragments {
		fragmentProb = 1e-12 // 0 would mean "default 0.6"
	}
	quota := map[string]int{}
	left := size
	for i, ps := range poolShare {
		q := int(ps.share*float64(size) + 0.5)
		if i == len(poolShare)-1 || q > left {
			q = left
		}
		quota[ps.format] = q
		left -= q
	}
	out := make([]poolQuery, 0, size)
	// Each round asks for more cases than the pool needs because the rare
	// formats fill slowly; a new round only ever adds to what is kept.
	for round := int64(0); len(out) < size && round < 20; round++ {
		cases, err := eval.GenerateWorkload(sys.Repo, eval.WorkloadOptions{
			N: 6 * size, Seed: seed + 104729*round, FragmentProb: fragmentProb,
		})
		if err != nil {
			return nil, err
		}
		for _, c := range cases {
			format := sys.Repo.Get(c.Target).Format
			if quota[format] == 0 || (len(c.Query.Fragments) > 0) != fragments {
				continue
			}
			pq := poolQuery{Keywords: strings.Join(c.Query.Keywords, " "), Format: format}
			if fragments {
				pq.DDL = ddl.Print(c.Query.Fragments[0])
			}
			if _, err := query.Parse(query.Input{Keywords: pq.Keywords, DDL: pq.DDL}); err != nil {
				continue
			}
			for id := range c.Relevant {
				pq.Relevant = append(pq.Relevant, id)
			}
			sort.Strings(pq.Relevant)
			quota[format]--
			out = append(out, pq)
		}
	}
	if len(out) < size {
		return nil, fmt.Errorf("query pool: only %d of %d queries could be generated", len(out), size)
	}
	// Interleave the formats: the quota loop above appends in generation
	// order, which is already mixed, but a slice of the pool (the cold
	// queries of one recovery round) must carry the same mix as the whole.
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// buildImports renders count relational schemas as DDL scripts with unique
// names: the write traffic of a run.
func buildImports(seed int64, count int) []importDoc {
	out := make([]importDoc, 0, count)
	for i, s := range webtables.GenerateRelational(seed, count) {
		token := "imp" + letters(seed) + "x" + letters(int64(i))
		hub := s.Entities[0]
		hub.Attributes = append(hub.Attributes, &model.Attribute{Name: token, Type: "INT", Nullable: true})
		out = append(out, importDoc{Name: s.Name + " " + token, DDL: ddl.Print(s), Token: token})
	}
	return out
}

// letters writes v in base 26 with a..z digits: the tokenizer splits words
// at letter/digit boundaries, and an import token must stay one word.
func letters(v int64) string {
	if v < 0 {
		v = -v
	}
	var b []byte
	for {
		b = append(b, byte('a'+v%26))
		v /= 26
		if v == 0 {
			break
		}
	}
	return string(b)
}
