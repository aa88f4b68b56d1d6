package match

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"schemr/internal/text"
)

// gram is one character n-gram of a name, the bytes norm[off:off+len],
// with its multiplicity, while newNameEntry builds the name's entry. key
// orders grams the way compareGrams does — byte length in the top byte,
// then the first seven bytes big-endian, zero-padded — so the merge in
// sharedMass compares integers and reads the bytes only to break a key tie
// between grams longer than seven bytes. A gram is at most defaultMaxGram
// runes, so its byte length fits the top byte.
type gram struct {
	key   uint64
	off   uint32
	count uint32
}

// gramKey returns the merge key of gram bytes g (len(g) < 256).
func gramKey(g string) uint64 {
	k := uint64(len(g)) << 56
	for i := 0; i < len(g) && i < keyBytes; i++ {
		k |= uint64(g[i]) << (48 - 8*i)
	}
	return k
}

// keyBytes is how many leading gram bytes a key carries.
const keyBytes = 7

// tail returns the bytes past the first keyBytes of the gram with the
// given key at byte offset off of norm.
func tail(norm string, key uint64, off uint32) string {
	n := uint32(key >> 56)
	if n <= keyBytes {
		return ""
	}
	return norm[off+keyBytes : off+n]
}

// compareGrams orders grams by byte length, then bytes — any total order
// works for the merge in sharedMass, and this one settles most comparisons
// on the key alone. a belongs to the entry with norm na, b to nb.
func compareGrams(a, b gram, na, nb string) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return strings.Compare(tail(na, a.key, a.off), tail(nb, b.key, b.off))
}

// nameEntry holds everything the name and context matchers derive from one
// normalized name: its n-gram multiset (every substring of 1..maxGram
// runes) sorted by compareGrams, and the multiset's total mass. The grams
// live in one array, keys first so the merge streams through them alone:
// grams[:n] are the n keys, grams[n:] the matching off<<32 | count words.
// ascii records that every rune is one byte. Entries are immutable once
// built.
type nameEntry struct {
	norm  string
	grams []uint64
	mass  int
	ascii bool
}

// split returns the entry's gram keys and their off<<32 | count words.
func (e *nameEntry) split() (keys, meta []uint64) {
	n := len(e.grams) / 2
	return e.grams[:n:n], e.grams[n:]
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
	e := &nameEntry{norm: n, mass: gramMass(runes, maxGram), ascii: runes == len(n)}
	if e.mass == 0 {
		return e
	}
	gs := make([]gram, 0, e.mass)
	for l := 1; l <= runes && l <= maxGram; l++ {
		for i := 0; i+l <= runes; i++ {
			gs = append(gs, gram{key: gramKey(n[offs[i]:offs[i+l]]), off: uint32(offs[i]), count: 1})
		}
	}
	slices.SortFunc(gs, func(a, b gram) int { return compareGrams(a, b, n, n) })
	k := 0
	for _, g := range gs[1:] {
		if compareGrams(g, gs[k], n, n) == 0 {
			gs[k].count++
		} else {
			k++
			gs[k] = g
		}
	}
	gs = gs[:k+1]
	e.grams = make([]uint64, 2*len(gs))
	keys, meta := e.split()
	for i, g := range gs {
		keys[i], meta[i] = g.key, uint64(g.off)<<32|uint64(g.count)
	}
	return e
}

// sharedMass returns the size of the multiset intersection of two entries'
// sorted gram vectors in one merge pass over their keys.
//
// The merge stops early: a gram both names contain has its one-rune-shorter
// prefix in both too, so the shortest shared gram longer than the longest
// one found so far is at most one rune (gap bytes) longer. Once both sides
// are past that length with nothing found, nothing longer is shared. A
// gram shared with an ASCII name is ASCII, so gap is 1 byte then and 4
// (the longest UTF-8 rune) otherwise.
func sharedMass(a, b *nameEntry) int {
	ka, ma := a.split()
	kb, mb := b.split()
	gap := uint64(utf8.UTFMax)
	if a.ascii || b.ascii {
		gap = 1
	}
	inter, i, j, longest := 0, 0, 0, uint64(0)
	for i < len(ka) && j < len(kb) {
		x, y := ka[i], kb[j]
		if x != y {
			if min(x, y)>>56 > longest+gap {
				break
			}
			// Advance the smaller side without a data-dependent branch.
			d := 0
			if x < y {
				d = 1
			}
			i += d
			j += 1 - d
			continue
		}
		if x>>56 > keyBytes {
			c := strings.Compare(tail(a.norm, x, uint32(ma[i]>>32)), tail(b.norm, y, uint32(mb[j]>>32)))
			if c != 0 {
				if c < 0 {
					i++
				} else {
					j++
				}
				continue
			}
		}
		inter += int(min(uint32(ma[i]), uint32(mb[j])))
		longest = x >> 56
		i++
		j++
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

// resolve appends the entries of the given IDs to dst.
func (t *nameTable) resolve(dst []*nameEntry, ids []nameID) []*nameEntry {
	t.mu.RLock()
	for _, id := range ids {
		dst = append(dst, t.entries[id])
	}
	t.mu.RUnlock()
	return dst
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

// pairMemo remembers gramSim(query name, schema name) for one search: one
// row per schema name ID, holding its similarity to every query name, so
// each distinct pair is scored once across all candidates and all phase-2
// workers however many matrix cells and context-term comparisons repeat
// it. Workers racing on the same missing name both compute its row; the
// row is a pure function of the name, so the first store wins harmlessly.
type pairMemo struct {
	mu   sync.RWMutex
	rows map[nameID]int32 // start of the name's row in sims
	sims []float64        // rows of len(qs) similarities, in query-name order

	hits, misses atomic.Uint64
}

// table writes gramSim(qs[i], entry of ids[j]) for every pair into out,
// row-major len(qs)×len(ids), taking each lock once per call rather than
// per name. miss is reusable memory for the names the memo lacks.
func (pm *pairMemo) table(out []float64, qs []*nameEntry, ids []nameID, miss *memoMiss) {
	nq, ns := len(qs), len(ids)
	miss.cols, miss.ids = miss.cols[:0], miss.ids[:0]
	pm.mu.RLock()
	for j, id := range ids {
		at, ok := pm.rows[id]
		if !ok {
			miss.cols, miss.ids = append(miss.cols, j), append(miss.ids, id)
			continue
		}
		for qi, v := range pm.sims[at : int(at)+nq] {
			out[qi*ns+j] = v
		}
	}
	pm.mu.RUnlock()
	pm.hits.Add(uint64((ns - len(miss.cols)) * nq))
	if len(miss.cols) == 0 {
		return
	}
	pm.misses.Add(uint64(len(miss.cols) * nq))
	miss.entries = names.resolve(miss.entries[:0], miss.ids)
	for k, s := range miss.entries {
		for qi, q := range qs {
			out[qi*ns+miss.cols[k]] = gramSim(q, s)
		}
	}
	pm.mu.Lock()
	if pm.rows == nil {
		pm.rows = make(map[nameID]int32, memoNames)
		pm.sims = make([]float64, 0, memoNames*nq)
	}
	for k, id := range miss.ids {
		if _, ok := pm.rows[id]; ok {
			continue
		}
		pm.rows[id] = int32(len(pm.sims))
		for qi := range qs {
			pm.sims = append(pm.sims, out[qi*ns+miss.cols[k]])
		}
	}
	pm.mu.Unlock()
}

// memoNames is how many schema names a search's memo is first sized
// for: about the distinct names of 50 web-table candidates, so a typical
// search never regrows it.
const memoNames = 256

// memoMiss is pairMemo.table's reusable memory: the columns, IDs and
// entries of the names a call found missing from the memo.
type memoMiss struct {
	cols    []int
	ids     []nameID
	entries []*nameEntry
}
