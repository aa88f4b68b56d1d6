package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitIdentifier(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"patient", []string{"patient"}},
		{"patientHeight", []string{"patient", "height"}},
		{"PatientHeight", []string{"patient", "height"}},
		{"patient_height", []string{"patient", "height"}},
		{"PATIENT_HEIGHT", []string{"patient", "height"}},
		{"patient-height", []string{"patient", "height"}},
		{"patient height", []string{"patient", "height"}},
		{"patient.height", []string{"patient", "height"}},
		{"HTTPServer", []string{"http", "server"}},
		{"parseHTTPResponse", []string{"parse", "http", "response"}},
		{"addr2line", []string{"addr", "2", "line"}},
		{"ICD10Code", []string{"icd", "10", "code"}},
		{"", nil},
		{"___", nil},
		{"--  --", nil},
		{"a", []string{"a"}},
		{"AB", []string{"ab"}},
		{"aB", []string{"a", "b"}},
		{"x_y-z.w", []string{"x", "y", "z", "w"}},
		{"  leading and trailing  ", []string{"leading", "and", "trailing"}},
		{"µUnit", []string{"µ", "unit"}}, // unicode lower µ then Upper boundary
	}
	for _, c := range cases {
		got := SplitIdentifier(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitIdentifier(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSplitIdentifierAlwaysLower(t *testing.T) {
	// Words are non-empty and fixed points of ToLower. (Some Unicode
	// capitals, e.g. mathematical alphanumerics, have no lowercase mapping;
	// ToLower-idempotence is the right invariant, not "no IsUpper rune".)
	f := func(s string) bool {
		for _, w := range SplitIdentifier(s) {
			if w == "" || w != strings.ToLower(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	variants := []string{"Patient_Height", "patientHeight", "patient height", "PATIENT-HEIGHT", "patient.height"}
	for _, v := range variants {
		if got := Normalize(v); got != "patientheight" {
			t.Errorf("Normalize(%q) = %q, want patientheight", v, got)
		}
	}
	if Normalize("") != "" {
		t.Errorf("Normalize(empty) should be empty")
	}
}

func TestTokenizeStop(t *testing.T) {
	got := TokenizeStop("a table of patients in the clinic")
	want := []string{"table", "patients", "clinic"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TokenizeStop = %v, want %v", got, want)
	}
}

func TestNGrams(t *testing.T) {
	got := NGrams("abc", 1, 3)
	want := []string{"a", "b", "c", "ab", "bc", "abc"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams(abc,1,3) = %v, want %v", got, want)
	}
	if NGrams("", 1, 5) != nil {
		t.Errorf("NGrams on empty should be nil")
	}
	if got := NGrams("ab", 3, 5); got != nil {
		t.Errorf("NGrams with min>len should be nil, got %v", got)
	}
	// max clamps to len.
	if got := NGrams("ab", 1, 99); len(got) != 3 {
		t.Errorf("NGrams(ab,1,99) len = %d, want 3", len(got))
	}
	// min clamps to 1.
	if got := NGrams("ab", 0, 1); len(got) != 2 {
		t.Errorf("NGrams(ab,0,1) len = %d, want 2", len(got))
	}
}

func TestNGramsCount(t *testing.T) {
	// Property: count of n-grams of a rune string of length n over [1,n]
	// equals n(n+1)/2.
	f := func(s string) bool {
		r := []rune(s)
		n := len(r)
		got := len(NGrams(s, 1, n))
		return got == n*(n+1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardTokens(t *testing.T) {
	if got := JaccardTokens([]string{"a", "b"}, []string{"b", "c"}); got != 1.0/3.0 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := JaccardTokens(nil, nil); got != 0 {
		t.Errorf("Jaccard(nil,nil) = %v, want 0", got)
	}
	if got := JaccardTokens([]string{"a", "a", "b"}, []string{"a", "b"}); got != 1 {
		t.Errorf("Jaccard should be set-based, got %v", got)
	}
}

func TestIsAlphabetic(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"patient", true},
		{"patient height", true},
		{"patient_height", true},
		{"patient-height", true},
		{"patient1", false},
		{"price($)", false},
		{"", false},
		{"héllo", true},
	}
	for _, c := range cases {
		if got := IsAlphabetic(c.in); got != c.want {
			t.Errorf("IsAlphabetic(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeAgreesWithNormalize(t *testing.T) {
	// Property: Normalize is the concatenation of Tokenize.
	f := func(s string) bool {
		return Normalize(s) == strings.Join(Tokenize(s), "")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
