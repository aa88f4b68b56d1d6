package model

import (
	"fmt"
	"math/rand"
	"testing"
)

// validateOracle is Validate as it was written before it stopped
// allocating: every duplicate and reference check through a map.
func validateOracle(s *Schema) error {
	if s.Name == "" {
		return fmt.Errorf("schema has no name")
	}
	seen := make(map[string]bool, len(s.Entities))
	for _, e := range s.Entities {
		if e == nil {
			return fmt.Errorf("schema %q: null entity", s.Name)
		}
		if e.Name == "" {
			return fmt.Errorf("schema %q: entity with empty name", s.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("schema %q: duplicate entity %q", s.Name, e.Name)
		}
		seen[e.Name] = true
		attrSeen := make(map[string]bool, len(e.Attributes))
		for _, a := range e.Attributes {
			if a == nil {
				return fmt.Errorf("schema %q: entity %q has a null attribute", s.Name, e.Name)
			}
			if a.Name == "" {
				return fmt.Errorf("schema %q: entity %q has attribute with empty name", s.Name, e.Name)
			}
			if attrSeen[a.Name] {
				return fmt.Errorf("schema %q: entity %q has duplicate attribute %q", s.Name, e.Name, a.Name)
			}
			attrSeen[a.Name] = true
		}
		for _, pk := range e.PrimaryKey {
			if e.Attribute(pk) == nil {
				return fmt.Errorf("schema %q: entity %q primary key column %q does not exist", s.Name, e.Name, pk)
			}
		}
	}
	for _, e := range s.Entities {
		if e.Parent != "" && !seen[e.Parent] {
			return fmt.Errorf("schema %q: entity %q has unknown parent %q", s.Name, e.Name, e.Parent)
		}
	}
	for _, fk := range s.ForeignKeys {
		from := s.Entity(fk.FromEntity)
		if from == nil {
			return fmt.Errorf("schema %q: foreign key from unknown entity %q", s.Name, fk.FromEntity)
		}
		if !seen[fk.ToEntity] {
			return fmt.Errorf("schema %q: foreign key to unknown entity %q", s.Name, fk.ToEntity)
		}
		if len(fk.FromColumns) == 0 {
			return fmt.Errorf("schema %q: foreign key %s→%s has no columns", s.Name, fk.FromEntity, fk.ToEntity)
		}
		for _, col := range fk.FromColumns {
			if from.Attribute(col) == nil {
				return fmt.Errorf("schema %q: foreign key column %s.%s does not exist", s.Name, fk.FromEntity, col)
			}
		}
		to := s.Entity(fk.ToEntity)
		for _, col := range fk.ToColumns {
			if to.Attribute(col) == nil {
				return fmt.Errorf("schema %q: foreign key target column %s.%s does not exist", s.Name, fk.ToEntity, col)
			}
		}
	}
	return nil
}

// flawedSchema draws a schema that is valid or breaks one or more rules at
// random places. Lists run past pairwise, and names repeat only rarely, so
// a violation can come late in a long list.
func flawedSchema(rng *rand.Rand) *Schema {
	flaw := func() bool { return rng.Intn(400) == 0 }
	name := func(prefix string, i int) string {
		switch {
		case flaw():
			return ""
		case flaw():
			return fmt.Sprint(prefix, rng.Intn(i+1)) // may repeat an earlier one
		}
		return fmt.Sprint(prefix, i)
	}
	s := &Schema{Name: "s"}
	if flaw() {
		s.Name = ""
	}
	sizes := []int{0, 1, 3, 8, pairwise - 1, pairwise, pairwise + 1, 70}
	for i := range sizes[rng.Intn(len(sizes))] {
		if flaw() {
			s.Entities = append(s.Entities, nil)
			continue
		}
		e := &Entity{Name: name("e", i)}
		for j := range sizes[rng.Intn(len(sizes))] {
			if flaw() {
				e.Attributes = append(e.Attributes, nil)
			} else {
				e.Attributes = append(e.Attributes, &Attribute{Name: name("a", j)})
			}
		}
		if n := len(e.Attributes); n > 0 && rng.Intn(2) == 0 {
			e.PrimaryKey = []string{fmt.Sprint("a", rng.Intn(n+n/50+1))}
		}
		if i > 0 && rng.Intn(4) == 0 {
			e.Parent = fmt.Sprint("e", rng.Intn(i+3)) // may lie past the last entity
		}
		s.Entities = append(s.Entities, e)
	}
	for n := len(s.Entities); n > 0 && rng.Intn(2) == 0; {
		fk := ForeignKey{FromEntity: fmt.Sprint("e", rng.Intn(n+n/50+1)), ToEntity: fmt.Sprint("e", rng.Intn(n+n/50+1))}
		for range rng.Intn(3) {
			fk.FromColumns = append(fk.FromColumns, fmt.Sprint("a", rng.Intn(4)))
			fk.ToColumns = append(fk.ToColumns, fmt.Sprint("a", rng.Intn(4)))
		}
		s.ForeignKeys = append(s.ForeignKeys, fk)
	}
	return s
}

// TestValidateMatchesOracle: on valid and flawed schemas alike, Validate
// returns exactly the oracle's error — the first violation in declaration
// order.
func TestValidateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	verdicts := map[bool]int{}
	for i := 0; i < 3000; i++ {
		s := flawedSchema(rng)
		got, want := s.Validate(), validateOracle(s)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("schema %d: Validate = %v, oracle %v", i, got, want)
		}
		verdicts[got == nil]++
	}
	if verdicts[true] < 300 || verdicts[false] < 300 {
		t.Fatalf("verdicts %v: want both valid and flawed schemas", verdicts)
	}
}

// TestValidateAndFingerprintAllocs: for an ordinary schema Validate
// allocates nothing and Fingerprint only its digest string.
func TestValidateAndFingerprintAllocs(t *testing.T) {
	s := clinicSchema()
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{FromEntity: "doctor", FromColumns: []string{"id"}, ToEntity: "case"})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times; want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Fingerprint() }); n != 1 {
		t.Errorf("Fingerprint allocates %v times; want 1", n)
	}
}
