package server

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Replication surface. A primary serves two read-only endpoints replicas
// poll: a full state export for resync and the retained WAL records for
// streaming catch-up (see internal/repository/replication.go for the
// protocol's LSN semantics). A server started as a replica sets
// Config.ReadOnly, which rejects every mutating route with 403 — the
// replica's repository may only change by applying the primary's records,
// or its LSN sequence would fork.

// ReplicationWALJSON is the data payload of GET /api/v1/replication/wal.
type ReplicationWALJSON struct {
	// LSN is the primary's current log position.
	LSN uint64 `json:"lsn"`
	// Resync tells the replica its position is below the primary's
	// retention window: install GET /api/v1/replication/state first.
	Resync bool `json:"resync,omitempty"`
	// Records are the WAL payloads after the requested position, in LSN
	// order (each is one walRecord JSON object).
	Records []json.RawMessage `json:"records,omitempty"`
}

// v1ReplicationState serves the primary's full repository state for a
// resyncing replica: the snapshot stream (a compacted log of framed
// records, LSN included) exactly as repository.json holds it.
func (s *Server) v1ReplicationState(w http.ResponseWriter, r *http.Request) {
	data, _, err := s.engine.Repository().ExportState()
	if err != nil {
		s.writeJSONErr(w, r, internalErr(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// v1ReplicationWAL serves the retained WAL records after ?from=<lsn>.
func (s *Server) v1ReplicationWAL(w http.ResponseWriter, r *http.Request) {
	from := uint64(0)
	if v := r.FormValue("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeJSONErr(w, r, badRequest("bad from %q", v))
			return
		}
		from = n
	}
	batch := s.engine.Repository().RecordsSince(from)
	out := ReplicationWALJSON{LSN: batch.LSN, Resync: batch.Resync}
	for _, rec := range batch.Records {
		out.Records = append(out.Records, json.RawMessage(rec))
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// readOnly rejects a mutating route with 403 when the server is a
// read-only replica.
func (s *Server) readOnly(h http.HandlerFunc) http.HandlerFunc {
	if !s.cfg.ReadOnly {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.writeJSONErr(w, r, &apiErr{
			status: http.StatusForbidden, code: "read_only",
			msg: "this server is a read-only replica; send writes to the primary",
		})
	}
}
