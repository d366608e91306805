package remotecache

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/inputlimits"
	"repro/internal/metrics"
	"repro/internal/qorlog"
)

// Server is the shared result tier chatlsd replicas talk to: a pure-stdlib
// HTTP service exposing content-addressed QoR records. A replica reads a
// sample's record before it synthesizes and publishes it after; two replicas
// that miss the same key at once both compute it and store the same bytes,
// so sharing needs no coordination beyond GET-then-PUT. Records live in the
// store the single-process path already trusts — a qorlog.Store, so the tier
// inherits its durable log, warm restarts, and degradation rules.
// Elaboration checkpoints are not shared: each replica elaborates a design
// once per process.
//
// Routes (keys are lowercase-hex content hashes):
//
//	GET  /v1/qor/{key}                200 binary record | 404
//	PUT  /v1/qor/{key}                204 | 400 | 413 | 422 (key mismatch)
//	GET  /healthz                     200 {status,...}
//	GET  /metrics                     Prometheus text
//
// QoR bodies are the qorlog binary record frame (EncodeRecord), not JSON:
// float64 QoR fields round-trip bit-exactly, which the byte-identical
// replica guarantee depends on.
type Server struct {
	cfg ServerConfig
	reg *metrics.Registry

	qorHits, qorMisses, qorPuts *metrics.Counter
	requests, rejected          *metrics.Counter
}

// ServerConfig wires a Server.
type ServerConfig struct {
	// QoR holds the records. Required (a memory-only store is fine).
	QoR *qorlog.Store
	// MaxRecordBytes caps PUT /v1/qor bodies (default 4096).
	MaxRecordBytes int64
}

// NewServer builds the service.
func NewServer(cfg ServerConfig) *Server {
	if cfg.QoR == nil {
		cfg.QoR = qorlog.NewMemoryStore(0)
	}
	if cfg.MaxRecordBytes <= 0 {
		cfg.MaxRecordBytes = 4096
	}
	s := &Server{cfg: cfg, reg: metrics.NewRegistry()}
	s.qorHits = s.reg.NewCounter("remotecache_qor_hits_total", "QoR record GETs served")
	s.qorMisses = s.reg.NewCounter("remotecache_qor_misses_total", "QoR record GETs missed")
	s.qorPuts = s.reg.NewCounter("remotecache_qor_puts_total", "well-formed QoR record PUTs answered 204; a PUT for a held key stores nothing")
	s.requests = s.reg.NewCounter("remotecache_http_requests_total", "HTTP requests handled")
	s.rejected = s.reg.NewCounter("remotecache_input_rejected_total", "requests rejected at the trust boundary")
	s.reg.NewGaugeFunc("remotecache_qor_records", "live QoR records", func() int64 {
		return int64(s.cfg.QoR.Len())
	})
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/qor/{key}", s.handleQoRGet)
	mux.HandleFunc("PUT /v1/qor/{key}", s.handleQoRPut)
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":      "ok",
		"qor_records": s.cfg.QoR.Len(),
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
