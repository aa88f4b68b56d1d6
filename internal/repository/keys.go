package repository

import (
	"fmt"
	"sort"
	"time"

	"schemr/internal/tenant"
)

// API-key store. Keys authenticate tenants at the HTTP edge; the
// repository owns them so they ride the existing durability substrate for
// free: creation and revocation are strongly-logged WAL records, they are
// baked into snapshots, and they replicate through ExportState and WAL
// shipping — a read replica can therefore authenticate exactly the
// tenants its primary does, with no side-channel key distribution. Only
// the SHA-256 hash of a key is ever stored or logged; the plaintext
// exists once, in the CreateKey return value.

// KeyEntry is one stored API-key binding: which tenant the key resolves
// to, an operator-facing name, and when it was minted. The map key (and
// WAL record ID) is the hex SHA-256 of the plaintext.
type KeyEntry struct {
	Tenant    string    `json:"tenant"`
	Name      string    `json:"name,omitempty"`
	CreatedAt time.Time `json:"createdAt"`
}

// Key reports one key to management APIs: the entry plus its hash (the
// revocation handle — the plaintext is long gone).
type Key struct {
	Hash string
	KeyEntry
}

// CreateKey mints a new API key bound to tenant tn, logs its hash
// durably, and returns the plaintext exactly once. Key mutations do not
// advance the change feed sequence — the feed drives the indexer, and
// keys are not documents.
func (r *Repository) CreateKey(tn, name string) (string, error) {
	if !tenant.ValidID(tn) {
		return "", fmt.Errorf("repository: invalid tenant id %q", tn)
	}
	plaintext, err := tenant.NewKey()
	if err != nil {
		return "", fmt.Errorf("repository: create key: %w", err)
	}
	hash := tenant.HashKey(plaintext)
	entry := &KeyEntry{Tenant: tn, Name: name, CreatedAt: time.Now().UTC()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.logRecord(&walRecord{Op: opKeyCreate, ID: hash, Key: entry}); err != nil {
		return "", err
	}
	r.keys[hash] = entry
	return plaintext, nil
}

// RevokeKey durably removes tenant tn's key with the given hash. Reports
// whether tn has such a key; revoking an unknown hash, or another
// tenant's key, logs nothing.
func (r *Repository) RevokeKey(tn, hash string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.keys[hash]; !ok || e.Tenant != tn {
		return false, nil
	}
	if err := r.logRecord(&walRecord{Op: opKeyRevoke, ID: hash}); err != nil {
		return false, err
	}
	delete(r.keys, hash)
	return true, nil
}

// LookupKey resolves a plaintext API key to its tenant. The read path for
// every authenticated request; hashing means a stolen snapshot or WAL
// does not leak usable credentials.
func (r *Repository) LookupKey(plaintext string) (string, bool) {
	hash := tenant.HashKey(plaintext)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.keys[hash]; ok {
		return e.Tenant, true
	}
	return "", false
}

// Keys lists the stored keys for tenant tn (hashes only), sorted by
// creation time then hash for a stable listing.
func (r *Repository) Keys(tn string) []Key {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Key
	for hash, e := range r.keys {
		if e.Tenant == tn {
			out = append(out, Key{Hash: hash, KeyEntry: *e})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}
