package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/tightness"
	"schemr/internal/webtables"
)

// pageDigestWant is the SHA-256 of every page in TestPageDigestPinned,
// first recorded from the allocating phase-2/3 matchers the per-worker
// scratch kernels replaced, and re-recorded, unchanged in what it ranks,
// when the six-matcher ensemble and the served concepts joined the hash.
// Any change to which schemas rank, in what order, with which score,
// tightness or coverage bits, anchor, matched elements or their concepts
// changes it.
const pageDigestWant = "8c2e15ba6cd85b2f6c2efb182e87cb8b7dcc05be12d1ddb3fe045672c21db32f"

// digestCorpus is a mixed seeded corpus: relational, hierarchical and
// tangled schemas (disconnected parts, cycles, self-references, a
// 300-entity chain) plus distinct flat web tables.
func digestCorpus(t *testing.T) *repository.Repository {
	t.Helper()
	repo := repository.New()
	put := func(s *model.Schema) {
		if _, _, err := repo.PutDedup(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range webtables.GenerateRelational(61, 60) {
		put(s)
	}
	for _, s := range webtables.GenerateHierarchical(62, 30) {
		put(s)
	}
	for _, s := range webtables.GenerateTangled(63, 40) {
		put(s)
	}
	flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: 64, NumTables: 1500}).All())
	for _, s := range flat {
		put(s)
	}
	return repo
}

// sixMatchers is the ensemble of all six matchers: the defaults and every
// extension.
func sixMatchers(t *testing.T) *match.Ensemble {
	t.Helper()
	six, err := match.NewEnsemble(match.NewNameMatcher(), match.NewContextMatcher(), match.NewExactMatcher(),
		match.NewTypeMatcher(), match.NewConceptMatcher(), match.NewSynonymMatcher())
	if err != nil {
		t.Fatal(err)
	}
	return six
}

// digestQueries are keyword queries and fragment queries: single- and
// multi-entity fragments, with and without keywords beside them.
var digestQueries = []query.Input{
	{Keywords: "patient height gender diagnosis"},
	{Keywords: "order date total customer"},
	{Keywords: "name price quantity"},
	{Keywords: "employee salary department manager"},
	{Keywords: "title author year"},
	{DDL: "CREATE TABLE orders (id INT, customer_id INT, total DECIMAL(8,2), order_date DATE);"},
	{Keywords: "shipment", DDL: "CREATE TABLE product (id INT, name VARCHAR(32), price FLOAT, qty INT);"},
	{DDL: `CREATE TABLE customer (id INT, name VARCHAR(40), city VARCHAR(20));
CREATE TABLE orders (id INT, customer INT REFERENCES customer(id), total FLOAT, status VARCHAR(8));`},
	{Keywords: "patient", DDL: `CREATE TABLE patient (patient_id INT, patientId INT, height FLOAT, gender CHAR(1));
CREATE TABLE visit (id INT, patient INT, diagnosis TEXT);`},
	{DDL: "CREATE TABLE employee (employee INT, salary FLOAT);"},
}

// TestPageDigestPinned pins the served pages of Engine.SearchWithStatsContext
// across phase-2/3 rewrites: keyword and fragment queries over a seeded
// corpus, under the default, the extended and the six-matcher ensemble,
// with the popularity boost on, and with non-default tightness options,
// hashed row by row — IDs, float64 bits of score, tightness and coverage,
// the anchor, and every matched element's ref, score bits, penalty bits,
// query index and codebook concepts.
//
// The digest is pinned on amd64 only, like TestRankingDigestPinned: other
// architectures may fuse multiply-adds in the scoring arithmetic.
func TestPageDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("page digest is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	repo := digestCorpus(t)
	ids := repo.IDs()
	for i := 0; i < len(ids); i += 7 {
		for range 1 + i%4 {
			repo.RecordSelection(ids[i])
		}
	}
	variants := []struct {
		name     string
		opts     Options
		extended bool
		six      bool
	}{
		{name: "default"},
		{name: "extended", extended: true},
		{name: "popularity", opts: Options{PopularityBoost: 0.5}},
		{name: "tightness", opts: Options{Tightness: tightness.Options{NearPenalty: 0.2, FarPenalty: 0.5, NearHops: 2, MatchThreshold: 0.3}}},
		{name: "six", six: true},
	}

	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	rows, matched := 0, 0
	for _, v := range variants {
		v.opts.Parallelism = 2
		e := NewEngine(repo, v.opts)
		if v.extended {
			e.SetEnsemble(match.ExtendedEnsemble())
		}
		if v.six {
			e.SetEnsemble(sixMatchers(t))
		}
		if err := e.Reindex(); err != nil {
			t.Fatal(err)
		}
		for _, in := range digestQueries {
			q, err := query.Parse(in)
			if err != nil {
				t.Fatal(err)
			}
			page, stats, err := e.SearchWithStatsContext(context.Background(), q, 10)
			if err != nil {
				t.Fatal(err)
			}
			str(v.name)
			put(uint64(len(page)))
			put(uint64(stats.TotalRanked))
			for _, r := range page {
				str(r.ID)
				put(math.Float64bits(r.Score))
				put(math.Float64bits(r.Tightness))
				put(math.Float64bits(r.Coverage))
				str(r.Anchor)
				put(uint64(len(r.Matched)))
				for j, el := range r.Matched {
					str(el.Ref.Entity)
					str(el.Ref.Attribute)
					put(math.Float64bits(el.Score))
					put(math.Float64bits(el.Penalty))
					put(uint64(el.QueryIndex))
					str(r.ConceptsAt(j))
				}
				rows++
				matched += len(r.Matched)
			}
		}
	}
	if rows < 200 || matched < 500 {
		t.Fatalf("digest pages too thin: %d rows, %d matched elements", rows, matched)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pageDigestWant {
		t.Fatalf("page digest %s, want %s (%d rows, %d matched elements)", got, pageDigestWant, rows, matched)
	}
}
