// Package text provides the lexical analysis shared by Schemr's document
// index and its fine-grained schema matchers: identifier splitting,
// normalization, tokenization and n-gram extraction.
//
// Schema element names arrive in wildly inconsistent lexical forms —
// "patientHeight", "patient_height", "PATIENT-HEIGHT", "pt_hght" — and the
// paper's name matcher is explicitly designed to survive "abbreviated terms,
// alternate grammatical forms, and delimiter characters not in the original
// query". Everything in this package is pure and allocation-conscious; it is
// called once per element at index time and many times per query at match
// time.
package text

import (
	"strings"
	"unicode"
)

// Delimiters recognized when splitting identifiers into words.
func isDelimiter(r rune) bool {
	switch r {
	case '_', '-', '.', '/', ':', ';', ',', ' ', '\t', '\n', '(', ')', '[', ']', '{', '}', '|', '#', '@', '$', '&', '+', '=', '~', '"', '\'', '`', '?', '!', '*', '%', '<', '>', '\\':
		return true
	}
	return unicode.IsSpace(r)
}

// SplitIdentifier splits a schema identifier into its constituent words.
// It splits on delimiter characters, camelCase boundaries (fooBar → foo bar),
// acronym boundaries (HTTPServer → http server) and letter/digit boundaries
// (addr2line → addr 2 line). All returned words are lower-case. An empty or
// all-delimiter input yields nil.
func SplitIdentifier(s string) []string {
	var words []string
	runes := []rune(s)
	n := len(runes)
	start := -1 // start of the current word, -1 when between words

	flush := func(end int) {
		if start >= 0 && end > start {
			words = append(words, strings.ToLower(string(runes[start:end])))
		}
		start = -1
	}

	class := func(r rune) int {
		switch {
		case unicode.IsDigit(r):
			return 1
		case unicode.IsLetter(r):
			return 2
		default:
			return 0
		}
	}

	for i := 0; i < n; i++ {
		r := runes[i]
		if isDelimiter(r) || class(r) == 0 {
			flush(i)
			continue
		}
		if start < 0 {
			start = i
			continue
		}
		prev := runes[i-1]
		// letter/digit class change starts a new word.
		if class(r) != class(prev) {
			flush(i)
			start = i
			continue
		}
		// lower→Upper camelCase boundary.
		if unicode.IsUpper(r) && unicode.IsLower(prev) {
			flush(i)
			start = i
			continue
		}
		// Acronym end: "HTTPServer" → boundary between P and S, detected as
		// Upper followed by lower when the previous run was all upper.
		if unicode.IsLower(r) && unicode.IsUpper(prev) && i-1 > start {
			flush(i - 1)
			start = i - 1
			continue
		}
	}
	flush(n)
	return words
}

// Normalize canonicalizes an identifier to a single comparison key: the
// identifier's words, lower-cased and concatenated without separators.
// "Patient_Height", "patientHeight" and "patient height" all normalize to
// "patientheight".
func Normalize(s string) string {
	return strings.Join(SplitIdentifier(s), "")
}

// Tokenize produces the index token stream for a free-text or identifier
// field: the identifier words in order. It is the analyzer used both at
// index time and at query time, so the two always agree.
func Tokenize(s string) []string {
	return SplitIdentifier(s)
}

// DefaultStopwords are dropped by TokenizeStop. The list is deliberately
// tiny: schema element names are short and information-dense, so aggressive
// stopping hurts recall. Only glue words that appear in schema descriptions
// are removed.
var DefaultStopwords = map[string]bool{
	"a": true, "an": true, "and": true, "as": true, "at": true,
	"by": true, "for": true, "from": true, "in": true, "into": true,
	"is": true, "it": true, "of": true, "on": true, "or": true,
	"that": true, "the": true, "to": true, "with": true,
}

// TokenizeStop tokenizes s and removes stopwords. Used for description and
// summary fields; element-name fields use Tokenize so that no name is ever
// dropped.
func TokenizeStop(s string) []string {
	toks := Tokenize(s)
	out := toks[:0]
	for _, t := range toks {
		if !DefaultStopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// NGrams returns every contiguous substring of s with length between min and
// max inclusive, in order of occurrence. The paper's name matcher parses
// "each schema element ... into a set of all possible n-grams, ranging in
// length from one character to the length of the word": that is
// NGrams(word, 1, len(word)). Multiplicities are preserved (the result is a
// multiset); callers that need a set can dedupe. Bounds are clamped to the
// rune length of s; min is clamped to at least 1.
func NGrams(s string, min, max int) []string {
	runes := []rune(s)
	n := len(runes)
	if min < 1 {
		min = 1
	}
	if max > n {
		max = n
	}
	if n == 0 || min > max {
		return nil
	}
	// Total count: sum over L=min..max of (n-L+1).
	total := 0
	for l := min; l <= max; l++ {
		total += n - l + 1
	}
	out := make([]string, 0, total)
	for l := min; l <= max; l++ {
		for i := 0; i+l <= n; i++ {
			out = append(out, string(runes[i:i+l]))
		}
	}
	return out
}

// JaccardTokens computes the Jaccard similarity |A∩B|/|A∪B| between two
// token slices treated as sets. Empty∪empty scores 0.
func JaccardTokens(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	setA := make(map[string]bool, len(a))
	for _, t := range a {
		setA[t] = true
	}
	setB := make(map[string]bool, len(b))
	for _, t := range b {
		setB[t] = true
	}
	inter := 0
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// IsAlphabetic reports whether every rune in s is a letter, an ASCII space
// or one of the benign identifier separators ('_', '-'). The WebTables
// filter pipeline uses this to drop "schemas containing non-alphabetical
// characters" while tolerating ordinary word separators in header cells.
func IsAlphabetic(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if unicode.IsLetter(r) || r == ' ' || r == '_' || r == '-' {
			continue
		}
		return false
	}
	return true
}
