package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"schemr/internal/match"
	"schemr/internal/repository"
	"schemr/internal/webtables"
)

func testRepo(t *testing.T) *repository.Repository {
	t.Helper()
	repo := repository.New()
	for _, s := range webtables.GenerateRelational(3, 60) {
		if _, err := repo.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range webtables.GenerateHierarchical(4, 20) {
		if _, err := repo.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	// Flat web-table schemas as distractor mass: they share column
	// vocabulary with the multi-entity schemas of the same domains.
	flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: 5, NumTables: 8000}).All())
	for _, s := range flat {
		if _, _, err := repo.PutDedup(s); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

func TestGenerateWorkload(t *testing.T) {
	repo := testRepo(t)
	cases, err := GenerateWorkload(repo, WorkloadOptions{N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 50 {
		t.Fatalf("cases = %d", len(cases))
	}
	for i, c := range cases {
		if c.Query == nil || c.Query.IsEmpty() {
			t.Fatalf("case %d: empty query", i)
		}
		if !c.Relevant[c.Target] {
			t.Fatalf("case %d: target not relevant", i)
		}
		if repo.Get(c.Target) == nil {
			t.Fatalf("case %d: target %q not in repo", i, c.Target)
		}
	}
	// Determinism.
	again, err := GenerateWorkload(repo, WorkloadOptions{N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		if cases[i].Target != again[i].Target ||
			strings.Join(cases[i].Query.Keywords, " ") != strings.Join(again[i].Query.Keywords, " ") {
			t.Fatalf("case %d not deterministic", i)
		}
	}
	// Error path: empty repo.
	if _, err := GenerateWorkload(repository.New(), WorkloadOptions{N: 5}); err == nil {
		t.Error("empty repo accepted")
	}
}

func TestPerturbProducesVariants(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	kinds := map[string]bool{}
	for i := 0; i < 200; i++ {
		p := Perturb(r, "patient height")
		if p == "" {
			t.Fatal("empty perturbation")
		}
		kinds[p] = true
	}
	// Expect several distinct perturbation outcomes.
	if len(kinds) < 4 {
		t.Errorf("perturbations too uniform: %v", kinds)
	}
}

func TestMetrics(t *testing.T) {
	rel := map[string]bool{"a": true, "b": true}
	r := Ranking{"x", "a", "y", "b", "z"}
	if got := PrecisionAtK(r, rel, 1); got != 0 {
		t.Errorf("P@1 = %v", got)
	}
	if got := PrecisionAtK(r, rel, 5); got != 0.4 {
		t.Errorf("P@5 = %v", got)
	}
	if got := RecallAtK(r, rel, 4); got != 1 {
		t.Errorf("R@4 = %v", got)
	}
	if got := RecallAtK(r, rel, 1); got != 0 {
		t.Errorf("R@1 = %v", got)
	}
	if got := ReciprocalRank(r, rel); got != 0.5 {
		t.Errorf("RR = %v", got)
	}
	if got := ReciprocalRank(Ranking{"x"}, rel); got != 0 {
		t.Errorf("RR no hit = %v", got)
	}
	// nDCG: hits at ranks 2 and 4 → dcg = 1/log2(3) + 1/log2(5);
	// ideal (2 rel) = 1 + 1/log2(3).
	want := (1/math.Log2(3) + 1/math.Log2(5)) / (1 + 1/math.Log2(3))
	if got := NDCGAtK(r, rel, 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("nDCG = %v, want %v", got, want)
	}
	// Perfect ranking → all ones.
	perfect := Ranking{"a", "b", "x"}
	if NDCGAtK(perfect, rel, 10) != 1 || ReciprocalRank(perfect, rel) != 1 {
		t.Error("perfect ranking not scored 1")
	}
	// Edge cases.
	if PrecisionAtK(nil, rel, 5) != 0 || NDCGAtK(nil, rel, 5) != 0 || RecallAtK(nil, nil, 5) != 0 {
		t.Error("empty inputs should score 0")
	}
}

// TestMetricsExplicitFalseEntries pins the denominator fix: a relevance
// map may carry explicit false entries (judged-irrelevant annotations),
// and they must count toward no denominator — previously nDCG sized the
// ideal ranking from len(rel), deflating the score, and an all-false map
// divided zero by zero.
func TestMetricsExplicitFalseEntries(t *testing.T) {
	rel := map[string]bool{"a": true, "x": false, "y": false}
	perfect := Ranking{"a", "x", "y"}
	if got := NDCGAtK(perfect, rel, 10); got != 1 {
		t.Errorf("nDCG with false entries = %v, want 1", got)
	}
	if got := RecallAtK(perfect, rel, 1); got != 1 {
		t.Errorf("R@1 with false entries = %v, want 1", got)
	}
	// Judged-irrelevant hits never count as relevant.
	if got := PrecisionAtK(Ranking{"x", "y"}, rel, 2); got != 0 {
		t.Errorf("P@2 over false entries = %v, want 0", got)
	}
	// All-false map: nothing is relevant, and nothing may be NaN.
	none := map[string]bool{"x": false}
	for name, got := range map[string]float64{
		"nDCG": NDCGAtK(Ranking{"x"}, none, 10),
		"R@10": RecallAtK(Ranking{"x"}, none, 10),
		"RR":   ReciprocalRank(Ranking{"x"}, none),
	} {
		if got != 0 || math.IsNaN(got) {
			t.Errorf("%s over all-false map = %v, want 0", name, got)
		}
	}
}

func TestEvaluateAggregates(t *testing.T) {
	cases := []Case{
		{Relevant: map[string]bool{"a": true}},
		{Relevant: map[string]bool{"b": true}},
	}
	rank := func(c Case) Ranking {
		if c.Relevant["a"] {
			return Ranking{"a"}
		}
		return Ranking{"x", "b"}
	}
	m := Evaluate(rank, cases)
	if m.N != 2 || m.P1 != 0.5 || math.Abs(m.MRR-0.75) > 1e-12 {
		t.Errorf("metrics = %+v", m)
	}
	if empty := Evaluate(rank, nil); empty.N != 0 {
		t.Errorf("empty workload = %+v", empty)
	}
}

func TestProbes(t *testing.T) {
	for _, family := range ProbeFamilies {
		probes, err := GenerateProbes(family, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(probes) != 40 {
			t.Fatalf("%s: probes = %d", family, len(probes))
		}
		for _, p := range probes {
			if p.Term == p.Target {
				t.Errorf("%s: unperturbed probe %q", family, p.Term)
			}
			if len(p.Decoys) != 5 {
				t.Errorf("%s: decoys = %d", family, len(p.Decoys))
			}
		}
	}
	if _, err := GenerateProbes("nonsense", 5, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestNameMatcherBeatsExactTokensOnProbes(t *testing.T) {
	nm := match.NewNameMatcher()
	for _, family := range []string{"abbreviation", "morphology"} {
		probes, err := GenerateProbes(family, 100, 11)
		if err != nil {
			t.Fatal(err)
		}
		ngramHit, _ := ProbeHitRate(nm.Similarity, probes)
		exactHit, _ := ProbeHitRate(ExactTokenSimilarity, probes)
		if ngramHit <= exactHit {
			t.Errorf("%s: n-gram hit rate %.2f should beat exact-token %.2f", family, ngramHit, exactHit)
		}
		if ngramHit < 0.8 {
			t.Errorf("%s: n-gram hit rate %.2f too low", family, ngramHit)
		}
	}
	// Delimiters: both handle them after normalization, n-gram must not be
	// worse.
	probes, _ := GenerateProbes("delimiter", 100, 11)
	ngramHit, _ := ProbeHitRate(nm.Similarity, probes)
	exactHit, _ := ProbeHitRate(ExactTokenSimilarity, probes)
	if ngramHit < exactHit {
		t.Errorf("delimiter: n-gram %.2f below exact %.2f", ngramHit, exactHit)
	}
}

func TestPipelinesRankAndImprove(t *testing.T) {
	repo := testRepo(t)
	rankers, err := Pipelines(repo, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rankers) != len(PipelineNames) {
		t.Fatalf("rankers = %d", len(rankers))
	}
	cases, err := GenerateWorkload(repo, WorkloadOptions{N: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]Metrics{}
	for _, name := range PipelineNames {
		results[name] = Evaluate(rankers[name], cases)
	}
	for name, m := range results {
		if m.MRR <= 0 {
			t.Errorf("%s: MRR = %v", name, m.MRR)
		}
	}
	// The headline claim: the full pipeline beats bare candidate
	// extraction on MRR.
	if results["+tightness"].MRR <= results["coarse"].MRR {
		t.Errorf("full pipeline MRR %.3f should beat coarse %.3f",
			results["+tightness"].MRR, results["coarse"].MRR)
	}
	for _, name := range PipelineNames {
		t.Logf("%-11s %v", name+":", results[name])
	}
}

func TestStructureProbesSeparateTightness(t *testing.T) {
	repo := repository.New()
	// Background noise so candidate extraction is non-trivial.
	for _, s := range webtables.GenerateHierarchical(8, 15) {
		if _, err := repo.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	probes, err := GenerateStructureProbes(repo, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	rankers, err := Pipelines(repo, 50)
	if err != nil {
		t.Fatal(err)
	}
	wins := map[string]float64{}
	for _, name := range PipelineNames {
		wins[name] = StructureWinRate(rankers[name], probes)
		t.Logf("%-11s tight-over-scattered win rate %.2f", name, wins[name])
	}
	// The structure-aware pipelines must dominate the lexical ones on this
	// probe — it is the tightness measurement's entire purpose.
	if wins["+tightness"] <= wins["+context"] {
		t.Errorf("tightness win rate %.2f should exceed no-structure %.2f",
			wins["+tightness"], wins["+context"])
	}
	if wins["+tightness"] < 0.8 {
		t.Errorf("tightness win rate %.2f too low", wins["+tightness"])
	}
	if wins["+extras"] < 0.8 {
		t.Errorf("+extras win rate %.2f too low", wins["+extras"])
	}
}
