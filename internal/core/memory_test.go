package core

import (
	"runtime"
	"testing"

	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/repository"
	"schemr/internal/webtables"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestResidentMemoryPerSchema is the resident-memory guard: over ~2 000
// generated web-table schemas, the heap the repository retains per schema,
// the heap the profile cache retains per schema (every profile built) and
// the heap a compacted index retains per schema stay under ceilings set
// from measured values plus headroom, so none can quietly regrow. The split is logged under -v. The name dictionary
// is process-wide and shared with other tests, so it is reported, not
// gated.
func TestResidentMemoryPerSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 2 000 profiles")
	}
	// Measured on amd64, go1.24: repository ≈ 940 B and profile cache
	// ≈ 1 810 B per schema (≈ 1 900 B under -race). Holding schema graphs
	// and map-based profiles instead measured 1 374 B and 2 801 B. The
	// compacted index measured ≈ 406 B per schema; ≈ 878 B while its
	// segments also held every document's term list.
	const (
		maxRepoBytes    = 1200
		maxProfileBytes = 2400
		maxIndexBytes   = 550
	)
	base := liveHeap()
	repo := repository.New()
	// The benchmark corpus's mix: relational and hierarchical schemas,
	// then distinct flat web tables of four or more columns.
	const want = 2000
	put := func(s *model.Schema) {
		if _, _, err := repo.PutDedup(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range webtables.GenerateRelational(41, want/10) {
		put(s)
	}
	for _, s := range webtables.GenerateHierarchical(42, want/20) {
		put(s)
	}
	pipe := webtables.NewPipeline()
	gen := webtables.NewGenerator(webtables.Options{Seed: 43, NumTables: 6 * want})
	for repo.Len() < want {
		tab, ok := gen.Next()
		if !ok {
			break
		}
		if len(tab.Columns) > 3 {
			put(pipe.ToSchema(tab))
		}
	}
	n := repo.Len()
	if n < 1500 {
		t.Fatalf("only %d schemas generated", n)
	}
	withRepo := liveHeap()

	e := NewEngine(repo, Options{DisableMetrics: true})
	for _, id := range repo.IDs() {
		if e.profiles.get(repo, id) == nil {
			t.Fatalf("no cache entry for %s", id)
		}
	}
	names := match.InternedNames()
	withProfiles := liveHeap()
	e.profiles.reset()
	withDictionary := liveHeap()

	// The index as a checkpoint leaves it: every document in one segment.
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	e.idx.Compact()
	withIndex := liveHeap()

	perRepo := float64(withRepo-base) / float64(n)
	perProfile := float64(withProfiles-withDictionary) / float64(n)
	perIndex := float64(withIndex-withDictionary) / float64(n)
	t.Logf("%d schemas: repository %.0f B/schema, profile cache %.0f B/schema, index %.0f B/schema, name dictionary %+.1f KB (%d names interned)",
		n, perRepo, perProfile, perIndex, float64(withDictionary-withRepo)/1024, names)
	if perRepo > maxRepoBytes {
		t.Errorf("repository retains %.0f B per schema, ceiling %d", perRepo, maxRepoBytes)
	}
	if perProfile > maxProfileBytes {
		t.Errorf("profile cache retains %.0f B per schema, ceiling %d", perProfile, maxProfileBytes)
	}
	if perIndex > maxIndexBytes {
		t.Errorf("index retains %.0f B per schema, ceiling %d", perIndex, maxIndexBytes)
	}
	runtime.KeepAlive(repo)
	runtime.KeepAlive(e)
}
