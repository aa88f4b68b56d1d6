package model_test

import (
	"os"
	"path/filepath"
	"testing"

	"schemr/internal/ddl"
	"schemr/internal/model"
	"schemr/internal/webtables"
	"schemr/internal/xsd"
)

// TestFingerprintGolden pins Schema.Fingerprint's digests. They key the
// repository's dedupe map and every stored snapshot's dedupe behaviour, so
// a change to the hashed byte stream is a format change, not a refactor.
func TestFingerprintGolden(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	clinic, err := ddl.Parse("clinic", read("clinic.sql"))
	if err != nil {
		t.Fatal(err)
	}
	po, err := xsd.Parse("purchaseorder", read("purchaseorder.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	rel := webtables.GenerateRelational(7, 3)
	hier := webtables.GenerateHierarchical(8, 2)
	// Multi-column and target-less foreign keys, declared out of sorted
	// order, plus an untyped attribute.
	multiFK := &model.Schema{
		Name: "orders",
		Entities: []*model.Entity{
			{Name: "order", Attributes: []*model.Attribute{{Name: "cust"}, {Name: "region", Type: "CHAR(2)"}, {Name: "item", Type: "INT"}}},
			{Name: "item", Attributes: []*model.Attribute{{Name: "id", Type: "INT"}}},
			{Name: "customer", Attributes: []*model.Attribute{{Name: "id", Type: "INT"}, {Name: "region", Type: "CHAR(2)"}}},
		},
		ForeignKeys: []model.ForeignKey{
			{FromEntity: "order", FromColumns: []string{"item"}, ToEntity: "item"},
			{FromEntity: "order", FromColumns: []string{"cust", "region"}, ToEntity: "customer", ToColumns: []string{"id", "region"}},
		},
	}
	cases := []struct {
		name string
		s    *model.Schema
		want string
	}{
		{"clinic.sql", clinic, "b29b0ca08ec8cc36df4013df1d638ad3"},
		{"purchaseorder.xsd", po, "ed0b685be69988db6ee803aebf0acd4a"},
		{"relational-7-0", rel[0], "70b303b748dffb400f2e8cbb551f1dda"},
		{"relational-7-1", rel[1], "1c550e7ff056e7f3f697d0763bfe96fa"},
		{"relational-7-2", rel[2], "d6a0c0fa3cfd9901957dffda9e37f9d1"},
		{"hierarchical-8-0", hier[0], "dd404a7bc9f0f4efdc257457e73aa8db"},
		{"hierarchical-8-1", hier[1], "a6c85bb1873318b638026b32766b8544"},
		{"multi-fk", multiFK, "a9460c131a95dfb5dfdcc6901c1e3e8f"},
	}
	for _, c := range cases {
		if len(c.s.Entities) < 2 {
			t.Errorf("%s: want a multi-entity schema, got %d entities", c.name, len(c.s.Entities))
		}
		if got := c.s.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint = %q, want %q", c.name, got, c.want)
		}
	}
}
