package main

import (
	"fmt"

	"schemr"
	"schemr/internal/core"
	"schemr/internal/model"
	"schemr/internal/repository"
	"schemr/internal/webtables"
)

// clinicSchema is the paper's reference answer for the running health-
// clinic scenario (Figures 2 and 4).
func clinicSchema() *model.Schema {
	return &model.Schema{
		Name:        "clinic records",
		Description: "reference data model for a rural health clinic",
		Entities: []*model.Entity{
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"}, {Name: "height", Type: "FLOAT"},
				{Name: "gender", Type: "VARCHAR(8)"}, {Name: "dob", Type: "DATE"},
			}, PrimaryKey: []string{"id"}},
			{Name: "case", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"}, {Name: "patient", Type: "INT"},
				{Name: "doctor", Type: "INT"}, {Name: "diagnosis", Type: "VARCHAR(64)"},
			}, PrimaryKey: []string{"id"}},
			{Name: "doctor", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"}, {Name: "gender", Type: "VARCHAR(8)"},
				{Name: "specialty", Type: "VARCHAR(32)"},
			}, PrimaryKey: []string{"id"}},
		},
		ForeignKeys: []model.ForeignKey{
			{FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient", ToColumns: []string{"id"}},
			{FromEntity: "case", FromColumns: []string{"doctor"}, ToEntity: "doctor", ToColumns: []string{"id"}},
		},
	}
}

// paperInput is the running example query: keywords patient, height,
// gender, diagnosis plus a partially designed patient table.
func paperInput() schemr.QueryInput {
	return schemr.QueryInput{
		Keywords: "patient, height, gender, diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	}
}

// buildMixedRepo fills a repository with roughly n schemas: filtered flat
// web tables plus multi-entity relational and hierarchical reference
// schemas, deterministic in seed.
func buildMixedRepo(seed int64, n int) (*repository.Repository, error) {
	repo := repository.New()
	nRel := n / 10
	nHier := n / 20
	if nRel < 5 {
		nRel = 5
	}
	if nHier < 3 {
		nHier = 3
	}
	for _, s := range webtables.GenerateRelational(seed+1, nRel) {
		if _, err := repo.Put(s); err != nil {
			return nil, err
		}
	}
	for _, s := range webtables.GenerateHierarchical(seed+2, nHier) {
		if _, err := repo.Put(s); err != nil {
			return nil, err
		}
	}
	// Fill the rest with retained flat web tables; the funnel retains a
	// few percent, so generate until we have enough.
	want := n - repo.Len()
	rawBatch := want * 40
	if rawBatch < 5000 {
		rawBatch = 5000
	}
	batchSeed := seed + 3
	for repo.Len() < n {
		flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{
			Seed: batchSeed, NumTables: rawBatch,
		}).All())
		batchSeed++
		for _, s := range flat {
			if repo.Len() >= n {
				break
			}
			if _, _, err := repo.PutDedup(s); err != nil {
				return nil, err
			}
		}
		if len(flat) == 0 {
			return nil, fmt.Errorf("corpus generator produced no retained schemas")
		}
	}
	return repo, nil
}

// benchCorpus builds the corpus of about n schemas that the Go benchmarks'
// benchRepo builds (bench_test.go): relational and hierarchical reference
// schemas from fixed seeds, then retained flat web tables. It takes no
// seed, so every experiment seed runs against the same corpus.
func benchCorpus(n int) (*repository.Repository, error) {
	repo := repository.New()
	for _, s := range webtables.GenerateRelational(1, n/10+5) {
		if _, err := repo.Put(s); err != nil {
			return nil, err
		}
	}
	for _, s := range webtables.GenerateHierarchical(2, n/20+3) {
		if _, err := repo.Put(s); err != nil {
			return nil, err
		}
	}
	for seed := int64(3); repo.Len() < n; seed++ {
		flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: seed, NumTables: 40 * (n - repo.Len() + 100)}).All())
		for _, s := range flat {
			if repo.Len() >= n {
				break
			}
			if _, _, err := repo.PutDedup(s); err != nil {
				return nil, err
			}
		}
	}
	return repo, nil
}

// newSystem wraps a repository in an engine-backed system, indexed.
func newSystem(repo *repository.Repository) (*schemr.System, error) {
	sys := &schemr.System{Repo: repo, Engine: core.NewEngine(repo, core.Options{})}
	return sys, sys.Engine.Reindex()
}
