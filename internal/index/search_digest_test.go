package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// rankingDigestWant is the SHA-256 of every SearchTermsStats result in
// TestRankingDigestPinned, recorded from the block-max document-at-a-time
// scorer the term-at-a-time one replaced. Any change to which documents
// rank, their score bits, their match counts or their order changes it.
const rankingDigestWant = "c93403197779f7236e46e402fb49becd69441591664bd2ab15fcbd4d7a4cbf3e"

// TestRankingDigestPinned pins the ranking bytes of phase 1 across scorer
// rewrites: seeded randomized-topology corpora (head-only, many small
// segments, merged, tombstoned), random queries, every
// option combination of daatOptionGrid and a spread of top-n limits,
// hashed hit by hit — IDs, float64 score bits, TermsMatched, order.
//
// The digest is pinned on amd64 only: other architectures fuse
// multiply-adds in the scoring arithmetic, which moves scores by an ulp
// (the Explain-oracle tests still hold there, both sides fuse alike).
func TestRankingDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("ranking digest is recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(2718))
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	hits, dels := 0, 0
	for round := 0; round < 12; round++ {
		ix, vocab := randTopoCorpus(t, rng, 100+rng.Intn(250))
		sn := ix.snap.Load()
		for i := int32(0); i < ix.nextOrd; i++ {
			if sn.dels.get(i) {
				dels++
			}
		}
		for q := 0; q < 12; q++ {
			terms := randQuery(rng, vocab)
			for _, opts := range daatOptionGrid {
				for _, n := range []int{1, 2, 5, 10, 0, -1, 1000} {
					got, _ := ix.SearchTermsStats(terms, n, opts)
					put(uint64(len(got)))
					for _, hit := range got {
						h.Write([]byte(hit.ID))
						put(math.Float64bits(hit.Score))
						put(uint64(hit.TermsMatched))
					}
					hits += len(got)
				}
			}
		}
	}
	if hits == 0 || dels == 0 {
		t.Fatalf("digest corpus too narrow: %d hits, %d tombstones", hits, dels)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rankingDigestWant {
		t.Fatalf("ranking digest %s, want %s (%d hits)", got, rankingDigestWant, hits)
	}
}
