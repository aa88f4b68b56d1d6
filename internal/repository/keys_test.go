package repository

import (
	"path/filepath"
	"strings"
	"testing"

	"schemr/internal/tenant"
)

func TestKeyLifecycle(t *testing.T) {
	r := New()
	k1, err := r.CreateKey("acme", "ci")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(k1, "sk_") {
		t.Fatalf("key shape = %q", k1)
	}
	if tn, ok := r.LookupKey(k1); !ok || tn != "acme" {
		t.Fatalf("LookupKey = %q,%v", tn, ok)
	}
	if _, ok := r.LookupKey("sk_bogus"); ok {
		t.Error("bogus key resolved")
	}
	if _, err := r.CreateKey("Bad Tenant", ""); err == nil {
		t.Error("invalid tenant id accepted")
	}

	keys := r.Keys("acme")
	if len(keys) != 1 || keys[0].Hash != tenant.HashKey(k1) || keys[0].Name != "ci" {
		t.Fatalf("Keys = %+v", keys)
	}
	if got, err := r.RevokeKey("globex", keys[0].Hash); err != nil || got {
		t.Fatalf("RevokeKey through another tenant = %v,%v", got, err)
	}
	if _, ok := r.LookupKey(k1); !ok {
		t.Fatal("key revoked through another tenant")
	}
	if got, err := r.RevokeKey("acme", keys[0].Hash); err != nil || !got {
		t.Fatalf("RevokeKey = %v,%v", got, err)
	}
	if got, _ := r.RevokeKey("acme", keys[0].Hash); got {
		t.Error("double revoke reported true")
	}
	if _, ok := r.LookupKey(k1); ok {
		t.Error("revoked key still resolves")
	}
}

// Keys must survive kill -9 via the WAL, and snapshots must carry them.
func TestKeysDurable(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "repo.json"), filepath.Join(dir, "wal.log")

	r, _ := recoverAt(t, snap, wal)
	k1, err := r.CreateKey("acme", "ci")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := r.CreateKey("globex", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RevokeKey("globex", tenant.HashKey(k2)); err != nil {
		t.Fatal(err)
	}
	// No clean close: recovery is WAL replay alone.
	r2, _ := recoverAt(t, snap, wal)
	if tn, ok := r2.LookupKey(k1); !ok || tn != "acme" {
		t.Fatalf("key lost in WAL replay: %q,%v", tn, ok)
	}
	if _, ok := r2.LookupKey(k2); ok {
		t.Error("revoked key resurrected by replay")
	}

	// Snapshot then recover again: keys come from the snapshot.
	if err := r2.Snapshot(snap, 0); err != nil {
		t.Fatal(err)
	}
	r3, stats := recoverAt(t, snap, wal)
	if !stats.SnapshotLoaded || stats.Replayed != 0 {
		t.Fatalf("expected pure snapshot recovery, got %+v", stats)
	}
	if tn, ok := r3.LookupKey(k1); !ok || tn != "acme" {
		t.Fatalf("key lost in snapshot: %q,%v", tn, ok)
	}
}

// Keys replicate: WAL shipping carries create/revoke records, and a full
// state export installs the key set wholesale.
func TestKeysReplicate(t *testing.T) {
	dir := t.TempDir()
	primary, _ := recoverAt(t, filepath.Join(dir, "p.json"), filepath.Join(dir, "p.wal"))
	replica, _ := recoverAt(t, filepath.Join(dir, "r.json"), filepath.Join(dir, "r.wal"))

	k1, err := primary.CreateKey("acme", "ci")
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range primary.RecordsSince(replica.LSN()).Records {
		if _, err := replica.ApplyReplicated(payload); err != nil {
			t.Fatal(err)
		}
	}
	if tn, ok := replica.LookupKey(k1); !ok || tn != "acme" {
		t.Fatalf("replica missing shipped key: %q,%v", tn, ok)
	}

	// Resync path: a fresh replica installs the full export, keys included.
	data, _, err := primary.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New()
	if err := fresh.InstallState(data); err != nil {
		t.Fatal(err)
	}
	if tn, ok := fresh.LookupKey(k1); !ok || tn != "acme" {
		t.Fatalf("installed state missing key: %q,%v", tn, ok)
	}
}

// Each tenant's ID counter is independent, so the same bare ID can exist
// under two tenants without collision, and counters survive recovery.
func TestTenantIDCounters(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "repo.json"), filepath.Join(dir, "wal.log")
	r, _ := recoverAt(t, snap, wal)

	idDefault, err := r.Put(sch("patients", "id"))
	if err != nil {
		t.Fatal(err)
	}
	idAcme, err := r.PutTenant("acme", sch("visits", "id"))
	if err != nil {
		t.Fatal(err)
	}
	idGlobex, err := r.PutTenant("globex", sch("labs", "id"))
	if err != nil {
		t.Fatal(err)
	}
	if idDefault != "s000001" || idAcme != "acme/s000001" || idGlobex != "globex/s000001" {
		t.Fatalf("ids = %q %q %q", idDefault, idAcme, idGlobex)
	}
	if r.Len() != 3 || r.LenTenant("acme") != 1 || r.LenTenant("") != 1 {
		t.Fatalf("Len = %d, acme = %d, default = %d", r.Len(), r.LenTenant("acme"), r.LenTenant(""))
	}
	if ids := r.IDsTenant("acme"); len(ids) != 1 || ids[0] != "acme/s000001" {
		t.Fatalf("IDsTenant = %v", ids)
	}

	// Counters recover independently.
	r2, _ := recoverAt(t, snap, wal)
	id2, err := r2.PutTenant("acme", sch("orders", "id"))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "acme/s000002" {
		t.Fatalf("recovered acme counter gave %q", id2)
	}
	id3, err := r2.Put(sch("claims", "id"))
	if err != nil {
		t.Fatal(err)
	}
	if id3 != "s000002" {
		t.Fatalf("recovered default counter gave %q", id3)
	}
}

// Dedup fingerprints are tenant-scoped: identical schemas under two
// tenants are distinct documents, while within one tenant they dedup.
func TestTenantScopedDedup(t *testing.T) {
	r := New()
	id1, dup, err := r.PutDedupTenant("acme", sch("patients", "id"))
	if err != nil || dup {
		t.Fatalf("first put: %q %v %v", id1, dup, err)
	}
	id2, dup, err := r.PutDedupTenant("acme", sch("patients", "id"))
	if err != nil || !dup || id2 != id1 {
		t.Fatalf("same-tenant dup: %q %v %v", id2, dup, err)
	}
	id3, dup, err := r.PutDedupTenant("globex", sch("patients", "id"))
	if err != nil || dup || id3 == id1 {
		t.Fatalf("cross-tenant dedup leaked: %q %v %v", id3, dup, err)
	}
	// The default namespace dedups separately too.
	if _, dup, _ := r.PutDedup(sch("patients", "id")); dup {
		t.Error("default namespace saw another tenant's fingerprint")
	}
}

// PutTenant rejects explicit IDs that name a different tenant's
// namespace; a bare explicit ID lands in the caller's namespace.
func TestPutTenantOwnership(t *testing.T) {
	r := New()
	s := sch("patients", "id")
	s.ID = "globex/s000009"
	if _, err := r.PutTenant("acme", s); err == nil {
		t.Error("cross-tenant explicit ID accepted")
	}
	s2 := sch("visits", "id")
	s2.ID = "acme/v1"
	if _, err := r.PutTenant("acme", s2); err != nil {
		t.Fatalf("own-namespace explicit ID rejected: %v", err)
	}
	if r.Get("acme/v1") == nil {
		t.Error("explicit qualified ID not stored")
	}
}
