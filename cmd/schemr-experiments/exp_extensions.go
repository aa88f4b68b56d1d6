package main

import (
	"fmt"
	"strings"

	"schemr"
	"schemr/internal/codebook"
	"schemr/internal/core"
	"schemr/internal/match"
	"schemr/internal/query"
	"schemr/internal/summary"
)

// expExtensions exercises the paper's §Applications extensions, all
// implemented in this reproduction: the data-type codebook, usage
// statistics improving search results, and schema summarization for very
// large schemas.
func expExtensions(cfg config) error {
	n := 500
	if cfg.quick {
		n = 150
	}
	repo, err := buildMixedRepo(cfg.seed, n)
	if err != nil {
		return err
	}

	// --- Codebook profile: corpus-wide concept standardization report ---
	fmt.Println("codebook: corpus concept profile (standardization report)")
	profiles := codebook.ProfileCorpus(repo.All())
	shown := 0
	for _, p := range profiles {
		fmt.Printf("  %v\n", p)
		shown++
		if shown >= 8 {
			break
		}
	}

	// --- Codebook matcher: concept match with zero lexical overlap ---
	clinic := clinicSchema()
	q, err := query.Parse(query.Input{DDL: "CREATE TABLE bird (wingspan FLOAT, weight FLOAT);"})
	if err != nil {
		return err
	}
	qa, clinicProfile := match.NewQueryArtifacts(q), match.NewProfile(clinic)
	plain := match.DefaultEnsemble().MatchProfiled(qa, clinicProfile)
	withConcept, err := match.NewEnsemble(match.NewNameMatcher(), match.NewContextMatcher(), match.NewConceptMatcher())
	if err != nil {
		return err
	}
	conceptM := withConcept.MatchProfiled(qa, clinicProfile)
	var plainScore, conceptScore float64
	for qi, qe := range conceptM.Query {
		if qe.Ref.String() != "bird.wingspan" {
			continue
		}
		for si, se := range conceptM.Schema {
			if se.Ref.String() == "patient.height" {
				plainScore = plain.Scores[qi][si]
				conceptScore = conceptM.Scores[qi][si]
			}
		}
	}
	fmt.Printf("\ncodebook matcher: wingspan ↔ patient.height (both concept %q)\n", codebook.ConceptLength)
	fmt.Printf("  default ensemble score:   %.3f\n", plainScore)
	fmt.Printf("  + concept matcher score:  %.3f\n", conceptScore)
	if conceptScore <= plainScore {
		return fmt.Errorf("concept matcher did not lift the zero-overlap pair")
	}

	// --- Usage statistics: popularity breaks semantic ties ---
	twinA := clinicSchema()
	twinA.Name = "clinic mirror a"
	twinB := clinicSchema()
	twinB.Name = "clinic mirror b"
	aID, err := repo.Put(twinA)
	if err != nil {
		return err
	}
	bID, err := repo.Put(twinB)
	if err != nil {
		return err
	}
	engine := core.NewEngine(repo, core.Options{PopularityBoost: 0.2})
	if err := engine.Reindex(); err != nil {
		return err
	}
	pq, err := schemr.ParseQuery(paperInput())
	if err != nil {
		return err
	}
	rank := func() (int, int) {
		results, err := engine.Search(pq, 20)
		if err != nil {
			return -1, -1
		}
		pa, pb := -1, -1
		for i, r := range results {
			switch r.ID {
			case aID:
				pa = i
			case bID:
				pb = i
			}
		}
		return pa, pb
	}
	pa0, pb0 := rank()
	for i := 0; i < 25; i++ {
		repo.RecordSelection(bID)
	}
	pa1, pb1 := rank()
	fmt.Printf("\nusage statistics: identical twins, 25 click-throughs on twin b\n")
	fmt.Printf("  before: a at rank %d, b at rank %d\n", pa0+1, pb0+1)
	fmt.Printf("  after:  a at rank %d, b at rank %d\n", pa1+1, pb1+1)
	if pb1 > pa1 {
		return fmt.Errorf("popularity did not lift the selected twin")
	}

	// --- Summarization: very large schema reduced for display ---
	big := repo.All()[0]
	for _, s := range repo.All() {
		if s.NumEntities() > big.NumEntities() {
			big = s
		}
	}
	sum, scores, err := summary.Summarize(big, summary.Options{K: 2})
	if err != nil {
		return err
	}
	var kept []string
	for _, sc := range scores {
		if sc.Selected {
			kept = append(kept, fmt.Sprintf("%s(%.1f)", sc.Name, sc.Importance))
		}
	}
	fmt.Printf("\nsummarization: %q %d entities / %d attributes → %d / %d\n",
		big.Name, big.NumEntities(), big.NumAttributes(), sum.NumEntities(), sum.NumAttributes())
	fmt.Printf("  kept (importance): %s\n", strings.Join(kept, ", "))
	fmt.Println("\nall three extensions behave as the paper anticipates.")
	return nil
}
