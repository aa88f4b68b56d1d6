package server

import (
	"io"
	"net/http"
	"testing"

	"schemr/internal/repository"
)

// The state route serves the snapshot stream as opaque bytes, and those
// bytes install into a fresh repository holding the primary's schemas.
func TestReplicationStateServesSnapshotStream(t *testing.T) {
	ts, engine, ids := testServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/replication/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	replica := repository.New()
	if err := replica.InstallState(body); err != nil {
		t.Fatal(err)
	}
	if replica.Len() != engine.Repository().Len() || replica.Get(ids["clinic"]) == nil {
		t.Fatalf("installed %d schemas, primary holds %d", replica.Len(), engine.Repository().Len())
	}
}
