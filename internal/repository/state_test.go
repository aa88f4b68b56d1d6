package repository

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"schemr/internal/model"
	"schemr/internal/tenant"
)

// dump renders the repository's full logical state deterministically (JSON
// sorts map keys), so recovered state can be compared byte-for-byte with
// the state the live repository had at acknowledgement time. It reads the
// fields directly rather than through any on-disk shape, and normalises
// what no reader can observe: zero ID counters, and empty versus absent
// maps and slices. The dedupe map is left out: after a delete or replace
// it depends on history, not on the stored entries (checkPrints covers
// recovered repositories).
func dump(t *testing.T, r *Repository) string {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	type entryDump struct {
		ID string `json:"id"`
		*entry
		Usage Usage `json:"usage"` // shadows entry.Usage: always rendered
	}
	entries := make([]entryDump, len(r.order))
	for i, id := range r.order {
		e := r.entries[id]
		entries[i] = entryDump{ID: id, entry: e, Usage: e.Usage}
	}
	nextIDs := map[string]int{}
	for tn, n := range r.nextIDs {
		if n != 0 {
			nextIDs[tn] = n
		}
	}
	orNil := func(n int, v any) any {
		if n == 0 {
			return nil
		}
		return v
	}
	b, err := json.Marshal(map[string]any{
		"len":             len(r.entries),
		"entries":         entries,
		"nextIds":         nextIDs,
		"seq":             r.seq,
		"lsn":             r.lsn,
		"deleted":         orNil(len(r.deleted), r.deleted),
		"keys":            orNil(len(r.keys), r.keys),
		"feedback":        orNil(len(r.feedback), r.feedback),
		"weightSets":      orNil(len(r.weightSets), r.weightSets),
		"weightVersion":   r.weightVersion,
		"promotedVersion": r.promotedVersion,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkPrints asserts that every entry of r's dedupe map names a holder
// of that tenant-scoped fingerprint and, when complete, that every entry's
// fingerprint is mapped — as it is for a repository loaded from a
// snapshot. (A replayed delete or replace unmaps its fingerprint even if
// another entry shares it, so WAL replay reproduces history, not this.)
func checkPrints(t *testing.T, r *Repository, complete bool) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, id := range r.byPrint {
		if e := r.entries[id]; e == nil || printKey(tenant.Owner(id), mustDecode(e.Schema).Fingerprint()) != k {
			t.Fatalf("dedupe map: %q -> %q does not hold that fingerprint", k, id)
		}
	}
	for id, e := range r.entries {
		if _, ok := r.byPrint[printKey(tenant.Owner(id), mustDecode(e.Schema).Fingerprint())]; complete && !ok {
			t.Fatalf("dedupe map lacks the fingerprint of %q", id)
		}
	}
}

// randomOps applies n seeded mutations across two tenants: fresh puts
// (plain and deduplicating), replacing puts, deletes, tags, comments,
// selections, API-key creation and revocation, feedback
// batches, and weight-set creation and promotion.
func randomOps(t *testing.T, r *Repository, rng *rand.Rand, n int) {
	t.Helper()
	words := []string{"patient", "height", "gender", "order", "sku", "qty", "dob", "price"}
	schema := func() *model.Schema {
		attrs := make([]string, 1+rng.Intn(3))
		for i := range attrs {
			attrs[i] = fmt.Sprintf("%s%d", words[rng.Intn(len(words))], i)
		}
		return sch(fmt.Sprintf("t%d", rng.Intn(6)), attrs...)
	}
	at := time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		tn := []string{"", "acme"}[rng.Intn(2)]
		ids := r.IDsTenant(tn)
		pick := func() string {
			if len(ids) == 0 {
				return "missing"
			}
			return ids[rng.Intn(len(ids))]
		}
		at = at.Add(time.Minute)
		switch op := rng.Intn(12); {
		case op < 3 || len(ids) == 0:
			var err error
			if rng.Intn(2) == 0 {
				_, err = r.PutTenant(tn, schema())
			} else {
				_, _, err = r.PutDedupTenant(tn, schema())
			}
			if err != nil {
				t.Fatal(err)
			}
		case op == 3:
			s := schema()
			s.ID = pick()
			if _, err := r.PutTenant(tn, s); err != nil {
				t.Fatal(err)
			}
		case op == 4:
			r.Delete(pick())
		case op == 5:
			r.Tag(pick(), words[rng.Intn(len(words))], words[rng.Intn(len(words))])
		case op == 6:
			if err := r.AddComment(pick(), Comment{Author: "u", Text: fmt.Sprint("c", i), Rating: rng.Intn(6), At: at}); err != nil {
				t.Fatal(err)
			}
		case op == 7:
			for _, id := range []string{pick(), pick(), "missing"} {
				r.RecordSelection(id)
			}
		case op == 8:
			r.RecordSelection(pick())
		case op == 9:
			ktn := []string{"acme", "globex"}[rng.Intn(2)]
			if keys := r.Keys(ktn); len(keys) > 0 && rng.Intn(3) == 0 {
				if _, err := r.RevokeKey(ktn, keys[rng.Intn(len(keys))].Hash); err != nil {
					t.Fatal(err)
				}
			} else if _, err := r.CreateKey(ktn, fmt.Sprint("k", i)); err != nil {
				t.Fatal(err)
			}
		case op == 10:
			ev := []FeedbackEvent{{Query: words[rng.Intn(len(words))], ID: pick(), Rank: rng.Intn(10), Selected: rng.Intn(2) == 0, At: at}}
			if err := r.AppendFeedback(ev...); err != nil {
				t.Fatal(err)
			}
		default:
			if v := r.WeightVersion(); v > 0 && rng.Intn(2) == 0 {
				if err := r.PromoteWeights(1 + uint64(rng.Int63n(int64(v)))); err != nil {
					t.Fatal(err)
				}
			} else if _, err := r.AddWeightSet(WeightSet{Weights: map[string]float64{"name": rng.Float64(), "context": rng.Float64()}, CreatedAt: at}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkCounts asserts r's per-tenant counts equal a scan of its entries,
// and that LenTenant reads them.
func checkCounts(t *testing.T, label string, r *Repository) {
	t.Helper()
	scan := map[string]int{}
	r.mu.RLock()
	for id := range r.entries {
		scan[tenant.Owner(id)]++
	}
	counts := maps.Clone(r.counts)
	r.mu.RUnlock()
	if !maps.Equal(counts, scan) {
		t.Fatalf("%s: per-tenant counts %v, scan %v", label, counts, scan)
	}
	for _, tn := range []string{"", "acme", "globex"} {
		if got := r.LenTenant(tn); got != scan[tn] {
			t.Fatalf("%s: LenTenant(%q) = %d, scan %d", label, tn, got, scan[tn])
		}
	}
}

// TestTenantCountsMatchScan: the per-tenant counts LenTenant reads equal
// a full scan of the entries after seeded put/replace/delete sequences
// across two tenants, after recovery from snapshot + WAL, after WAL
// replay alone, and after InstallState.
func TestTenantCountsMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		snap, walPath := filepath.Join(dir, "repo.json"), filepath.Join(dir, "repo.wal")
		r, _ := recoverAt(t, snap, walPath)
		randomOps(t, r, rng, 60+rng.Intn(60))
		checkCounts(t, fmt.Sprintf("seed %d live", seed), r)

		got, _ := recoverAt(t, filepath.Join(t.TempDir(), "none.json"), walPath)
		checkCounts(t, fmt.Sprintf("seed %d WAL replay", seed), got)
		got.Close()

		if err := r.Snapshot(snap, r.Seq()); err != nil {
			t.Fatal(err)
		}
		randomOps(t, r, rng, 30+rng.Intn(30))
		checkCounts(t, fmt.Sprintf("seed %d live after snapshot", seed), r)
		got, _ = recoverAt(t, snap, walPath)
		checkCounts(t, fmt.Sprintf("seed %d snapshot + WAL", seed), got)
		got.Close()

		state, _, err := r.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		installed := New()
		if _, err := installed.PutTenant("globex", sch("stale", "x")); err != nil {
			t.Fatal(err)
		}
		if err := installed.InstallState(state); err != nil {
			t.Fatal(err)
		}
		checkCounts(t, fmt.Sprintf("seed %d InstallState", seed), installed)
		r.Close()
	}
}
