package match

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"schemr/internal/text"
)

// gram is one distinct character n-gram of a name with its multiplicity:
// the bytes norm[off:off+len] of the owning entry's norm, so it owns no
// bytes. A gram is at most defaultMaxGram runes, so len fits in 8 bits
// and the count takes the other 24. A count past maxGramCount (a name of
// millions of runes) continues in a following gram of equal bytes; both
// sides of sharedMass's merge split at the same cap, so it pairs the
// pieces up to the same minimum.
type gram struct {
	off      uint32
	lenCount uint32 // byte length in the low 8 bits, multiplicity above
}

const maxGramCount = 1<<24 - 1

func (g gram) len() uint32   { return g.lenCount & 0xff }
func (g gram) count() uint32 { return g.lenCount >> 8 }

// in returns the gram's bytes within its entry's norm.
func (g gram) in(norm string) string { return norm[g.off : g.off+g.len()] }

// compareGrams orders grams by byte length, then bytes — any total order
// works for the merge in sharedMass, and this one settles most comparisons
// on the length alone.
func compareGrams(a, b string) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return strings.Compare(a, b)
}

// nameEntry holds everything the name and context matchers derive from one
// normalized name: its n-gram multiset (every substring of 1..maxGram
// runes) as a vector sorted by compareGrams, and the multiset's total mass.
// Entries are immutable once built.
type nameEntry struct {
	norm  string
	grams []gram
	mass  int
}

// newNameEntry builds the entry of an already-normalized name. Interned
// entries (nameTable) and throwaway ones (unprofiled matching, query names
// the corpus has never seen) come from here, so there is one gram kernel.
func newNameEntry(n string, maxGram int) *nameEntry {
	offs := make([]int, 0, len(n)+1) // byte offset of each rune, then len(n)
	for i := range n {
		offs = append(offs, i)
	}
	offs = append(offs, len(n))
	runes := len(offs) - 1
	e := &nameEntry{norm: n, mass: gramMass(runes, maxGram)}
	if e.mass == 0 {
		return e
	}
	gs := make([]gram, 0, e.mass)
	for l := 1; l <= runes && l <= maxGram; l++ {
		for i := 0; i+l <= runes; i++ {
			gs = append(gs, gram{off: uint32(offs[i]), lenCount: uint32(offs[i+l]-offs[i]) | 1<<8})
		}
	}
	slices.SortFunc(gs, func(a, b gram) int { return compareGrams(a.in(n), b.in(n)) })
	k := 0
	for _, g := range gs[1:] {
		if g.in(n) == gs[k].in(n) && gs[k].count() < maxGramCount {
			gs[k].lenCount += 1 << 8
		} else {
			k++
			gs[k] = g
		}
	}
	// Entries live as long as the dictionary, so keep no spare capacity.
	e.grams = slices.Clone(gs[:k+1])
	return e
}

// sharedMass returns the size of the multiset intersection of two entries'
// sorted gram vectors in one merge pass.
func sharedMass(a, b *nameEntry) int {
	inter, i, j := 0, 0, 0
	for i < len(a.grams) && j < len(b.grams) {
		ga, gb := a.grams[i], b.grams[j]
		switch c := compareGrams(ga.in(a.norm), gb.in(b.norm)); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter += int(min(ga.count(), gb.count()))
			i++
			j++
		}
	}
	return inter
}

// gramSim blends two views of n-gram overlap: the Dice coefficient
// 2·|A∩B|/(|A|+|B|), which rewards morphological and delimiter variants of
// similar length, and a down-weighted overlap coefficient |A∩B|/min(|A|,|B|),
// which rewards containment and so keeps abbreviations ("qty" ⊂ "quantity",
// "pt hght" ⊂ "patient height") from being drowned by the expansion's extra
// grams. Taking the max keeps both regimes in [0,1] with identical names
// still scoring exactly 1; an empty name scores 0 against everything.
func gramSim(a, b *nameEntry) float64 {
	ma, mb := a.mass, b.mass
	if ma == 0 || mb == 0 {
		return 0
	}
	inter := float64(sharedMass(a, b))
	dice := 2 * inter / float64(ma+mb)
	if overlap := 0.8 * (inter / float64(min(ma, mb))); overlap > dice {
		return overlap
	}
	return dice
}

// nameID identifies one interned normalized name.
type nameID uint32

// nameTable is the corpus-wide name dictionary: one nameEntry per distinct
// normalized name any profiled schema has used, so every schema with an
// "id" column shares one gram vector. It is derived in-memory state,
// filled lazily by NewProfile and append-only: an entry outlives the
// schemas that used it, which bounds the table by the vocabulary ever
// imported rather than by the live corpus. Query names are looked up but
// never inserted, so serving searches cannot grow it.
type nameTable struct {
	mu      sync.RWMutex
	ids     map[string]nameID
	entries []*nameEntry
}

var names = &nameTable{ids: make(map[string]nameID)}

// InternedNames returns the number of distinct normalized names in the
// dictionary.
func InternedNames() int {
	names.mu.RLock()
	defer names.mu.RUnlock()
	return len(names.entries)
}

// intern returns the ID of a normalized name, adding its entry on first
// sight. The entry is built outside the write lock.
func (t *nameTable) intern(n string) nameID {
	t.mu.RLock()
	id, ok := t.ids[n]
	t.mu.RUnlock()
	if ok {
		return id
	}
	e := newNameEntry(n, defaultMaxGram)
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[n]; ok {
		return id
	}
	id = nameID(len(t.entries))
	t.entries = append(t.entries, e)
	t.ids[n] = id
	return id
}

// lookup returns the entry of a normalized name, or nil when it is not
// interned.
func (t *nameTable) lookup(n string) *nameEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id, ok := t.ids[n]; ok {
		return t.entries[id]
	}
	return nil
}

// resolve returns the entries of the given IDs.
func (t *nameTable) resolve(ids []nameID) []*nameEntry {
	out := make([]*nameEntry, len(ids))
	t.mu.RLock()
	for i, id := range ids {
		out[i] = t.entries[id]
	}
	t.mu.RUnlock()
	return out
}

// nameIndex assigns dense local indices to the distinct normalized names of
// one side of a match (a schema, or a query), so element names and context
// term sets become small integers indexing one similarity table.
type nameIndex struct {
	norms  []string // distinct normalized names, in first-seen order
	byRaw  map[string]int32
	byNorm map[string]int32
}

// add returns the local index of a raw name, normalizing each distinct raw
// spelling once.
func (ix *nameIndex) add(raw string) int32 {
	if i, ok := ix.byRaw[raw]; ok {
		return i
	}
	if ix.byRaw == nil {
		ix.byRaw, ix.byNorm = make(map[string]int32), make(map[string]int32)
	}
	n := text.Normalize(raw)
	i, ok := ix.byNorm[n]
	if !ok {
		i = int32(len(ix.norms))
		ix.norms = append(ix.norms, n)
		ix.byNorm[n] = i
	}
	ix.byRaw[raw] = i
	return i
}

// throwaway builds non-interned entries for the index's names — the
// unprofiled matchers' side of the kernel.
func (ix *nameIndex) throwaway(maxGram int) []*nameEntry {
	out := make([]*nameEntry, len(ix.norms))
	for i, n := range ix.norms {
		out[i] = newNameEntry(n, maxGram)
	}
	return out
}

// simTable returns gramSim(q, s) for every pair, row-major len(qs)×len(ss).
func simTable(qs, ss []*nameEntry) []float64 {
	out := make([]float64, 0, len(qs)*len(ss))
	for _, q := range qs {
		for _, s := range ss {
			out = append(out, gramSim(q, s))
		}
	}
	return out
}

// pairMemo remembers gramSim(query name, schema name) for one search,
// keyed by the query name's local index and the schema name's ID, so each
// distinct pair is scored once across all candidates and all phase-2
// workers however many matrix cells and context-term comparisons repeat it.
// Workers racing on the same missing pair both compute it; the value is a
// pure function of the pair, so either store is correct.
type pairMemo struct {
	mu sync.RWMutex
	m  map[uint64]float64

	hits, misses atomic.Uint64
}

// table returns gramSim(qs[i], entry of ids[j]) for every pair, row-major
// len(qs)×len(ids), taking each lock once per call rather than per cell.
func (pm *pairMemo) table(qs []*nameEntry, ids []nameID) []float64 {
	out := make([]float64, len(qs)*len(ids))
	var missing []int // cells absent from the memo
	pm.mu.RLock()
	for qi := range qs {
		row := out[qi*len(ids) : (qi+1)*len(ids)]
		for j, id := range ids {
			v, ok := pm.m[uint64(qi)<<32|uint64(id)]
			if !ok {
				missing = append(missing, qi*len(ids)+j)
			}
			row[j] = v
		}
	}
	pm.mu.RUnlock()
	pm.hits.Add(uint64(len(out) - len(missing)))
	if len(missing) == 0 {
		return out
	}
	pm.misses.Add(uint64(len(missing)))
	ss := names.resolve(ids)
	for _, c := range missing {
		out[c] = gramSim(qs[c/len(ids)], ss[c%len(ids)])
	}
	pm.mu.Lock()
	if pm.m == nil {
		pm.m = make(map[uint64]float64)
	}
	for _, c := range missing {
		pm.m[uint64(c/len(ids))<<32|uint64(ids[c%len(ids)])] = out[c]
	}
	pm.mu.Unlock()
	return out
}
