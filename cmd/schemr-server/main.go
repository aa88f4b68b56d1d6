// Command schemr-server runs the Schemr web service (the paper's Figure 5):
// the versioned JSON API under /api/v1/* — search, GraphML and SVG schema
// endpoints among it — an embedded HTML GUI, and a scheduled offline
// indexer that keeps the document index in sync with the schema
// repository. The serving stack carries a full request lifecycle:
// per-request deadlines, panic recovery, a bounded in-flight search gate
// that sheds load with 503 + Retry-After, and graceful shutdown on
// SIGINT/SIGTERM. It also serves Prometheus-format metrics at GET /metrics
// (disable with -metrics=false) and — when -pprof is set — net/http/pprof
// under /debug/pprof/ plus expvar at /debug/vars.
//
// The repository is durable: every mutation accepted over the API
// (import, delete, comment) is written to a write-ahead log and fsynced
// before the response is sent, a periodic checkpoint snapshots repository
// + index and truncates the WAL, and boot recovers snapshot + WAL replay
// while the saved index is read beside it — kill -9 at any point loses no
// acknowledged mutation. A fresh data directory starts empty. Boot logs
// one "boot:" line with the time of each phase and the bytes and objects
// the boot allocated.
//
// -replica-of turns the server into a read-only replica that streams the
// named primary's WAL (mutating routes answer 403). When the primary runs
// with -auth, give the replica the primary's credential with -replica-key
// (or open the primary's replication endpoints with -replication-open).
//
// -auth turns on multi-tenant serving: every /api request must present an
// API key (Authorization: Bearer or X-API-Key), keys are minted and revoked
// through POST/DELETE /api/v1/tenants/{id}/keys under the -admin-key
// bootstrap credential, each tenant operates in its own namespace, and
// per-tenant admission (-tenant-qps, -tenant-burst, -tenant-inflight)
// answers 429 + Retry-After before one tenant can starve the shared
// in-flight gate.
//
// -learn-interval closes the relevance loop: click-throughs (and the
// POST /api/v1/feedback batch route) are captured as durable WAL records,
// a background trainer fits candidate matcher weights from them on the
// given cadence and stores each as a versioned candidate (schemr_learn_*
// metrics), and POST /api/v1/weights/promote installs a candidate only
// when the evaluation gate shows no metric regression.
//
// Usage:
//
//	schemr-server -data DIR [-addr :8080] [-sync 30s]
//	              [-snapshot-interval 5m]
//	              [-replica-of URL] [-replica-poll 1s]
//	              [-replica-key KEY] [-replication-open]
//	              [-auth -admin-key KEY] [-tenant-qps 25]
//	              [-tenant-burst 50] [-tenant-inflight 8]
//	              [-timeout 10s] [-max-inflight 64] [-slow 1s]
//	              [-learn-interval 0]
//	              [-metrics=true] [-pprof]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"schemr"
	"schemr/internal/server"
)

func main() {
	data := flag.String("data", "schemr-data", "data directory (repository.json, repository.wal, schemas.idx)")
	addr := flag.String("addr", ":8080", "listen address")
	sync := flag.Duration("sync", 30*time.Second, "offline indexer interval")
	snapInterval := flag.Duration("snapshot-interval", 5*time.Minute, "periodic repository+index checkpoint (snapshots and truncates the WAL); non-positive disables")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request search deadline (negative disables)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrent searches before shedding 503 (negative disables)")
	slow := flag.Duration("slow", time.Second, "log requests slower than this (negative disables)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget for in-flight requests")
	metrics := flag.Bool("metrics", true, "serve Prometheus-format metrics at GET /metrics")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/ and expvar at /debug/vars")
	flushDocs := flag.Int("flush-docs", 0, "mutable-head docs before the index seals an immutable segment (0 = index default, negative disables auto-flush)")
	replicaOf := flag.String("replica-of", "", "primary base URL to replicate from (e.g. http://primary:8080); serves read-only and streams the primary's WAL")
	replicaPoll := flag.Duration("replica-poll", time.Second, "replication poll interval (with -replica-of)")
	replicaKey := flag.String("replica-key", "", "API key the replica presents to an authenticated primary (with -replica-of)")
	replicationOpen := flag.Bool("replication-open", false, "with -auth, leave the replication endpoints open to unauthenticated callers (trusted networks only)")
	auth := flag.Bool("auth", false, "require an API key on every /api request and serve each tenant in its own namespace")
	adminKey := flag.String("admin-key", "", "bootstrap admin credential for key management and global views (required with -auth)")
	tenantQPS := flag.Float64("tenant-qps", 25, "per-tenant sustained request rate before 429 (with -auth; non-positive disables)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant burst headroom above -tenant-qps (0 = 2x qps)")
	tenantInflight := flag.Int("tenant-inflight", 8, "per-tenant concurrent request cap before 429 (with -auth; negative disables)")
	learnInterval := flag.Duration("learn-interval", 0, "background relevance trainer interval: fit candidate matcher weights from accumulated feedback and store them for gated promotion (0 disables)")
	flag.Parse()
	if *auth && *adminKey == "" {
		log.Fatalf("schemr-server: -auth requires -admin-key (the bootstrap credential that mints tenant keys)")
	}

	var opts schemr.EngineOptions
	opts.FlushDocs = *flushDocs
	// Recover snapshot + WAL (a fresh directory starts empty) and keep the
	// WAL attached so every accepted mutation is fsync-logged before it is
	// acknowledged. The persisted index loads too — recovery is snapshot +
	// replay + incremental sync, never a cold full reindex of an existing
	// deployment.
	var before, booted runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, stats, err := schemr.OpenDurableWithOptions(*data, opts)
	if err != nil {
		log.Fatalf("schemr-server: %v", err)
	}
	runtime.ReadMemStats(&booted)
	switch {
	case stats.TornTail:
		log.Printf("recovered %s: snapshot=%v, %d WAL records replayed, torn tail truncated at byte %d",
			*data, stats.SnapshotLoaded, stats.Replayed, stats.TruncatedAt)
	case stats.Replayed > 0 || stats.Skipped > 0:
		log.Printf("recovered %s: snapshot=%v, %d WAL records replayed (%d already in snapshot)",
			*data, stats.SnapshotLoaded, stats.Replayed, stats.Skipped)
	}
	b, index := stats.Boot, "loaded"
	if b.IndexErr != nil {
		index = fmt.Sprintf("rebuilt (%v)", b.IndexErr)
	}
	log.Printf("boot: repository %v, index read %v (beside it), catch-up %v; index %s; allocated %.1f MB in %d objects",
		b.Repository.Round(time.Millisecond), b.Index.Round(time.Millisecond), b.Catchup.Round(time.Millisecond), index,
		float64(booted.TotalAlloc-before.TotalAlloc)/1e6, booted.Mallocs-before.Mallocs)
	log.Printf("loaded %d schemas from %s, %d indexed", sys.Repo.Len(), *data, sys.Engine.IndexedDocs())

	srv := server.NewWithConfig(sys.Engine, server.Config{
		SearchTimeout:          *timeout,
		MaxInFlight:            *maxInflight,
		SlowRequest:            *slow,
		DisableMetricsEndpoint: !*metrics,
		EnablePprof:            *pprofFlag,
		ReadOnly:               *replicaOf != "",
		AuthEnabled:            *auth,
		AdminKey:               *adminKey,
		TenantQPS:              *tenantQPS,
		TenantBurst:            *tenantBurst,
		TenantInFlight:         *tenantInflight,
		ReplicationOpen:        *replicationOpen,
		LearnInterval:          *learnInterval,
		Checkpoint:             func() error { return sys.Save(*data) },
	})
	stop := srv.StartIndexer(*sync)
	defer stop()
	stopCheckpoints := srv.StartCheckpointer(*snapInterval)
	defer stopCheckpoints()
	stopLearner := srv.StartLearner(*learnInterval)
	defer stopLearner()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful shutdown ordering on SIGINT/SIGTERM: stop accepting and
	// drain in-flight requests (http.Server.Shutdown), then halt the
	// offline indexer and checkpointer, cancel outstanding request
	// deadlines and take the final checkpoint snapshot (server.Shutdown),
	// then close the WAL and exit.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancelSignals()
	replicaDone := make(chan struct{})
	if *replicaOf != "" {
		log.Printf("replicating from %s every %v (read-only)", *replicaOf, *replicaPoll)
		go func() {
			defer close(replicaDone)
			runReplica(ctx, sys, *replicaOf, *replicaKey, *replicaPoll, *data)
		}()
	} else {
		close(replicaDone)
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("shutting down: draining in-flight requests (budget %v)", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(drainCtx); err != nil {
			log.Printf("schemr-server: drain: %v", err)
		}
		srv.Shutdown()
	}()

	if strings.HasPrefix(*addr, ":") {
		log.Printf("serving on %s (GUI at http://localhost%s/)", *addr, *addr)
	} else {
		log.Printf("serving on http://%s/", *addr)
	}
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("schemr-server: %v", err)
	}
	<-shutdownDone
	<-replicaDone
	if err := sys.Close(); err != nil {
		log.Printf("schemr-server: close: %v", err)
	}
	log.Printf("shut down cleanly")
}

// runReplica is the read-only replica's catch-up loop: every poll interval
// it fetches the primary's WAL records after the local LSN and applies
// them (each fsynced into the local WAL first, primary LSNs preserved).
// When the primary reports the position has aged out of its retention
// window — or applying detects an LSN gap — the replica reinstalls the
// primary's full state export, rebuilds the index and snapshots, then
// resumes streaming. The schemr_replica_lag gauge tracks primary LSN minus
// local LSN after every poll.
func runReplica(ctx context.Context, sys *schemr.System, primary, key string, poll time.Duration, dataDir string) {
	client := &replicaClient{http: &http.Client{Timeout: 30 * time.Second}, key: key}
	lag := sys.Engine.Metrics().Gauge("schemr_replica_lag",
		"Replication lag in WAL records (primary LSN minus local LSN).", nil)
	primary = strings.TrimRight(primary, "/")
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		if err := replicateOnce(ctx, client, sys, primary, dataDir, lag); err != nil && ctx.Err() == nil {
			log.Printf("schemr-server: replication: %v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// replicateOnce runs one poll: stream-and-apply, or full resync when the
// primary (or a detected gap) demands it.
func replicateOnce(ctx context.Context, client *replicaClient, sys *schemr.System, primary, dataDir string, lag interface{ Set(int64) }) error {
	var env struct {
		Data struct {
			LSN     uint64            `json:"lsn"`
			Resync  bool              `json:"resync"`
			Records []json.RawMessage `json:"records"`
		} `json:"data"`
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	from := sys.Repo.LSN()
	body, err := client.get(ctx, fmt.Sprintf("%s/api/v1/replication/wal?from=%d", primary, from))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decoding wal response: %w", err)
	}
	if env.Error != nil {
		return fmt.Errorf("primary: %s: %s", env.Error.Code, env.Error.Message)
	}
	if env.Data.Resync {
		return replicaResync(ctx, client, sys, primary, dataDir, lag)
	}
	applied := 0
	for _, rec := range env.Data.Records {
		ok, aerr := sys.Repo.ApplyReplicated(rec)
		if aerr != nil {
			log.Printf("schemr-server: replication: %v; resyncing", aerr)
			return replicaResync(ctx, client, sys, primary, dataDir, lag)
		}
		if ok {
			applied++
		}
	}
	if applied > 0 {
		if err := sys.Refresh(); err != nil {
			return err
		}
		// Replicated weight-set promotions must reach the replica's serving
		// ensemble, not just its repository state.
		sys.SyncWeights()
	}
	if local := sys.Repo.LSN(); env.Data.LSN > local {
		lag.Set(int64(env.Data.LSN - local))
	} else {
		lag.Set(0)
	}
	return nil
}

// replicaResync reinstalls the primary's full state: download, install,
// rebuild the index, snapshot (truncating the local WAL to the installed
// LSN) and zero the lag against the installed position.
func replicaResync(ctx context.Context, client *replicaClient, sys *schemr.System, primary, dataDir string, lag interface{ Set(int64) }) error {
	state, err := client.get(ctx, primary+"/api/v1/replication/state")
	if err != nil {
		return err
	}
	if err := sys.Repo.InstallState(state); err != nil {
		return err
	}
	if err := sys.Engine.Reindex(); err != nil {
		return err
	}
	if err := sys.Save(dataDir); err != nil {
		return err
	}
	sys.SyncWeights()
	lag.Set(0)
	log.Printf("schemr-server: replication: resynced %d schemas at lsn %d", sys.Repo.Len(), sys.Repo.LSN())
	return nil
}

// replicaClient issues the replica's GETs against the primary, forwarding
// the replica credential on every request — an authenticated primary
// rejects the poll loop with 403 otherwise, and the earlier code dropped
// the credential entirely, so replication silently stalled under -auth.
type replicaClient struct {
	http *http.Client
	key  string
}

func (c *replicaClient) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
