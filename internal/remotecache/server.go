package remotecache

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/inputlimits"
	"repro/internal/metrics"
	"repro/internal/qorlog"
)

// Server is the shared result tier chatlsd replicas talk to: a pure-stdlib
// HTTP service exposing content-addressed QoR records and the lease
// scheduler. Records live in the store the single-process path already
// trusts — a qorlog.Store, so the tier inherits its durable log, warm
// restarts, and degradation rules. Elaboration checkpoints are not shared:
// each replica elaborates a design once per process.
//
// Routes (keys are lowercase-hex content hashes):
//
//	GET  /v1/qor/{key}                200 binary record | 404
//	PUT  /v1/qor/{key}                204 | 400 | 413 | 422 (key mismatch)
//	POST /v1/leases                   200 {status,lease,ttl_ms}
//	POST /v1/leases/{id}/renew        200 | 410 (lost)
//	POST /v1/leases/{id}/complete     200 (idempotent)
//	GET  /healthz                     200 {status,...}
//	GET  /metrics                     Prometheus text
//
// QoR bodies are the qorlog binary record frame (EncodeRecord), not JSON:
// float64 QoR fields round-trip bit-exactly, which the byte-identical
// replica guarantee depends on.
type Server struct {
	cfg    ServerConfig
	leases *leaseTable
	reg    *metrics.Registry

	qorHits, qorMisses, qorPuts   *metrics.Counter
	requests, rejected, leaseDone *metrics.Counter
	stopSweep                     chan struct{}
	sweepDone                     sync.WaitGroup
}

// ServerConfig wires a Server.
type ServerConfig struct {
	// QoR holds the records. Required (a memory-only store is fine).
	QoR *qorlog.Store
	// LeaseTTL bounds every granted or renewed lease (default
	// DefaultLeaseTTL). Clients may ask for less, never more.
	LeaseTTL time.Duration
	// MaxRecordBytes caps PUT /v1/qor bodies (default 4096).
	MaxRecordBytes int64
	// Now is the clock (default time.Now; expiry tests inject).
	Now func() time.Time
}

// DefaultLeaseTTL bounds how long a crashed replica can block siblings from
// taking over one sample's synthesis: generous against a slow compile,
// small against a fleet's patience.
const DefaultLeaseTTL = 2 * time.Minute

// NewServer builds the service and starts the background lease-expiry
// sweep. Call Close to stop it.
func NewServer(cfg ServerConfig) *Server {
	if cfg.QoR == nil {
		cfg.QoR = qorlog.NewMemoryStore(0)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxRecordBytes <= 0 {
		cfg.MaxRecordBytes = 4096
	}
	s := &Server{
		cfg:       cfg,
		leases:    newLeaseTable(cfg.Now),
		reg:       metrics.NewRegistry(),
		stopSweep: make(chan struct{}),
	}
	s.qorHits = s.reg.NewCounter("remotecache_qor_hits_total", "QoR record GETs served")
	s.qorMisses = s.reg.NewCounter("remotecache_qor_misses_total", "QoR record GETs missed")
	s.qorPuts = s.reg.NewCounter("remotecache_qor_puts_total", "QoR records stored")
	s.requests = s.reg.NewCounter("remotecache_http_requests_total", "HTTP requests handled")
	s.rejected = s.reg.NewCounter("remotecache_input_rejected_total", "requests rejected at the trust boundary")
	s.leaseDone = s.reg.NewCounter("remotecache_lease_done_total", "claims answered with an existing result")
	s.reg.NewGaugeFunc("remotecache_leases_active", "live leases", func() int64 {
		return int64(s.leases.stats().Active)
	})
	s.reg.NewCounterFunc("remotecache_lease_granted_total", "leases granted", func() int64 {
		return s.leases.stats().Granted
	})
	s.reg.NewCounterFunc("remotecache_lease_held_total", "claims answered held", func() int64 {
		return s.leases.stats().Held
	})
	s.reg.NewCounterFunc("remotecache_lease_expired_total", "leases expired", func() int64 {
		return s.leases.stats().Expired
	})
	s.reg.NewCounterFunc("remotecache_lease_completed_total", "leases completed", func() int64 {
		return s.leases.stats().Completed
	})
	s.reg.NewGaugeFunc("remotecache_qor_records", "live QoR records", func() int64 {
		return int64(s.cfg.QoR.Len())
	})

	s.sweepDone.Add(1)
	go s.sweepLoop()
	return s
}

// Close stops the lease sweeper. The handler itself keeps working (the
// embedding process decides when to stop serving).
func (s *Server) Close() {
	close(s.stopSweep)
	s.sweepDone.Wait()
}

// sweepLoop expires abandoned leases in the background so the active gauge
// and table memory track reality even for keys nobody re-claims.
func (s *Server) sweepLoop() {
	defer s.sweepDone.Done()
	t := time.NewTicker(s.cfg.LeaseTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.leases.Sweep()
		}
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/qor/{key}", s.handleQoRGet)
	mux.HandleFunc("PUT /v1/qor/{key}", s.handleQoRPut)
	mux.HandleFunc("POST /v1/leases", s.handleLeaseClaim)
	mux.HandleFunc("POST /v1/leases/{id}/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleLeaseComplete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		mux.ServeHTTP(w, r)
	})
}

// jsonError writes the uniform rejection body.
func (s *Server) jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	s.rejected.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// pathKey extracts and validates the {key} wildcard: lowercase hex, sane
// length — the only shape content hashes take.
func (s *Server) pathKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !validKey(key) {
		s.jsonError(w, http.StatusUnprocessableEntity, "invalid key %q", key)
		return "", false
	}
	return key, true
}

// validKey accepts lowercase-hex strings of sane length — the only shape
// content hashes take — which keeps anything path-like out of the routes.
func validKey(k string) bool {
	if len(k) == 0 || len(k) > 128 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleQoRGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.pathKey(w, r)
	if !ok {
		return
	}
	k, ok := qorlog.KeyFromHex(key)
	if !ok {
		s.jsonError(w, http.StatusUnprocessableEntity, "key %q is not a record hash", key)
		return
	}
	rec, ok := s.cfg.QoR.Get(k)
	if !ok {
		s.qorMisses.Inc()
		s.jsonError(w, http.StatusNotFound, "no record for %s", key)
		return
	}
	s.qorHits.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(qorlog.EncodeRecord(k, rec))
}

func (s *Server) handleQoRPut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.pathKey(w, r)
	if !ok {
		return
	}
	k, ok := qorlog.KeyFromHex(key)
	if !ok {
		s.jsonError(w, http.StatusUnprocessableEntity, "key %q is not a record hash", key)
		return
	}
	body, code, err := inputlimits.ReadRawBody(w, r, s.cfg.MaxRecordBytes)
	if err != nil {
		s.jsonError(w, code, "%v", err)
		return
	}
	bk, rec, ok := qorlog.DecodeRecord(body)
	if !ok {
		s.jsonError(w, http.StatusBadRequest, "body is not a record frame")
		return
	}
	if bk != k {
		// The record is content-addressed; a body that disagrees with its
		// address is corruption or confusion, never something to store.
		s.jsonError(w, http.StatusUnprocessableEntity, "record key does not match path key")
		return
	}
	s.cfg.QoR.Put(k, rec)
	s.qorPuts.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// Lease wire shapes. TTLs travel as integer milliseconds.
type leaseClaimRequest struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	TTLms int64  `json:"ttl_ms"`
}

type leaseClaimResponse struct {
	Status LeaseStatus `json:"status"`
	Lease  string      `json:"lease,omitempty"`
	TTLms  int64       `json:"ttl_ms"`
}

type leaseRenewRequest struct {
	TTLms int64 `json:"ttl_ms"`
}

// clampTTL bounds a requested TTL to (0, cfg.LeaseTTL].
func (s *Server) clampTTL(ms int64) time.Duration {
	ttl := time.Duration(ms) * time.Millisecond
	if ttl <= 0 || ttl > s.cfg.LeaseTTL {
		return s.cfg.LeaseTTL
	}
	return ttl
}

func (s *Server) handleLeaseClaim(w http.ResponseWriter, r *http.Request) {
	var req leaseClaimRequest
	if code, err := inputlimits.DecodeJSONRequest(w, r, 4096, &req); err != nil {
		s.jsonError(w, code, "%v", err)
		return
	}
	if !validKey(req.Key) {
		s.jsonError(w, http.StatusUnprocessableEntity, "invalid key %q", req.Key)
		return
	}
	if req.Owner == "" || len(req.Owner) > 256 {
		s.jsonError(w, http.StatusUnprocessableEntity, "invalid owner")
		return
	}
	resp := leaseClaimResponse{}
	// A result that already exists makes the lease moot — answer done
	// before touching the table so completed work never queues claimants.
	if k, ok := qorlog.KeyFromHex(req.Key); ok {
		if _, ok := s.cfg.QoR.Get(k); ok {
			s.leaseDone.Inc()
			resp.Status = StatusDone
			writeJSON(w, resp)
			return
		}
	}
	status, id, ttl := s.leases.Claim(req.Key, req.Owner, s.clampTTL(req.TTLms))
	resp.Status = status
	resp.Lease = id
	resp.TTLms = ttl.Milliseconds()
	writeJSON(w, resp)
}

func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	var req leaseRenewRequest
	if code, err := inputlimits.DecodeJSONRequest(w, r, 1024, &req); err != nil {
		s.jsonError(w, code, "%v", err)
		return
	}
	if !s.leases.Renew(r.PathValue("id"), s.clampTTL(req.TTLms)) {
		s.jsonError(w, http.StatusGone, "lease %q expired or unknown", r.PathValue("id"))
		return
	}
	writeJSON(w, map[string]string{"status": "renewed"})
}

func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	// Idempotent: completing an expired or unknown lease succeeds — the
	// work's result is published either way, and the claimant must not fail
	// its request over lease bookkeeping.
	s.leases.Complete(r.PathValue("id"))
	writeJSON(w, map[string]string{"status": "completed"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.leases.stats()
	writeJSON(w, map[string]any{
		"status":        "ok",
		"qor_records":   s.cfg.QoR.Len(),
		"active_leases": st.Active,
		"lease_ttl_ms":  s.cfg.LeaseTTL.Milliseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
