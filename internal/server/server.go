// Package server is the serving layer for the ChatLS pipeline: an HTTP JSON
// API that customizes synthesis scripts on demand. It layers, on top of the
// one-shot experiment harness, the machinery a long-lived daemon needs:
//
//   - one admission function (admit): a fixed Workers+QueueDepth bound on
//     admitted-but-unfinished requests (full → 429 + Retry-After: 1), then
//     a Workers-sized semaphore bounding the ones that run at once,
//   - no stage retries or circuit breakers: pipeline stages are
//     deterministic, so a failing one runs once and degrades only the
//     sample that ran it, named in that sample's "degraded" list,
//   - a per-request deadline, the only budget a request has (resilience
//     timeout → 504); a 503 means only that the server is draining,
//   - singleflight deduplication of identical in-flight requests,
//   - each served design's baseline task, run by its first request and
//     kept for the server's life; the design's analysis and embedding are
//     kept on its snapshot in the process-wide checkpoint store, and
//     strategy retrieval in the database's LRU,
//   - a metrics registry exposed in Prometheus text format,
//   - graceful shutdown that drains in-flight work.
//
// Concurrency model: the llm.Model, synthrag.Database, and liberty.Library
// shared across requests are immutable at serving time; each request gets
// its own pipeline instance (cheap — a pair of struct allocations) and its
// own shallow copy of the kept baseline task, so no per-call state is
// ever shared between goroutines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/inputlimits"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/qorlog"
	"repro/internal/remotecache"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/synthrag"
	"repro/internal/work"
)

// Config assembles a Server. Zero values get serving defaults (see New).
type Config struct {
	Model *llm.Model         // generator for the chatls pipeline
	DB    *synthrag.Database // built SynthRAG database (required)
	Lib   *liberty.Library   // cell library; nil = Nangate45
	Seed  int64              // seed for raw-pipeline model instances

	Designs []*designs.Design // servable designs; nil = full benchmark set

	Workers        int           // customizations running at once (default 2)
	QueueDepth     int           // admitted requests that may wait for a worker (default 8)
	RequestTimeout time.Duration // per-request deadline (default 60s)

	// BeforeWork, when set, runs at the start of every customization, on
	// its worker slot — the chaos harness injects latency spikes here, and
	// tests hold a worker in place with it.
	BeforeWork func()
	// PipelineInject, when set, is installed as the fault injector on
	// every per-request chatls pipeline (tests and the chaos harness).
	PipelineInject *resilience.Injector

	// QoRLogPath, when non-empty, opens the durable QoR log there: every
	// sample synthesis outcome is appended, and a restarted daemon warm-fills
	// its result cache from the log instead of recomputing (warm restart).
	// Corrupt or torn trailing records are truncated at open; an unopenable
	// log degrades the daemon to memory-only result caching with a warning
	// rather than failing startup. Empty disables result caching.
	QoRLogPath string
	// QoRLogOpts carries the log's fault injection (tests).
	QoRLogOpts qorlog.Options

	// RemoteCache, when non-nil, connects this replica to a shared
	// chatlscached result tier: QoR lookups read through to it and fresh
	// results are written through to it, so a sample any replica has
	// synthesized is served to the others. Elaboration checkpoints stay in
	// the replica. A dead or unreachable tier degrades the
	// replica to local-only operation with a single warning; results are
	// bit-identical with or without it.
	RemoteCache *remotecache.Client

	DefaultK int // Pass@k when the request omits k (default 1)
	MaxK     int // upper bound on requested k (default 10)

	MaxBodyBytes      int64 // request-body cap, enforced before decoding (default 1 MiB)
	MaxRequirementLen int   // requirement string length cap (default 8 KiB)
}

// retrieveCacheSize bounds the database's strategy-retrieval LRU. The QoR
// record cache and the elaboration-checkpoint store take their packages'
// defaults.
const retrieveCacheSize = 256

// baseline is one served design's baseline synthesis, run by its first
// request and kept for the server's life: the pristine task (requirement left
// at the default — requests get a copy) and its QoR.
type baseline struct {
	mu   sync.Mutex
	task *chatls.Task
	qor  synth.QoR
}

// Server handles the ChatLS HTTP API. Create with New, serve via Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	byName  map[string]*designs.Design
	places  chan struct{} // Workers+QueueDepth semaphore: one token per admitted-but-unfinished customization
	slots   chan struct{} // Workers-sized semaphore: one token per running customization
	flight  *flightGroup
	bases   map[*designs.Design]*baseline
	ckpt    *synth.CheckpointStore // process-wide: baselines and Pass@k samples alike restore post-link state from it
	results *qorlog.Store          // nil when QoRLogPath == ""
	reg     *metrics.Registry
	work    *work.Counts // what this server's requests did: every request's context carries it

	// mu orders closed against active.Add, so Shutdown's Wait never races
	// the Add of a handler that read closed just before it was set.
	mu     sync.Mutex
	closed bool
	active sync.WaitGroup // customize handlers in flight

	requests     *metrics.Counter
	rejected     *metrics.Counter
	errs         *metrics.Counter
	timeouts     *metrics.Counter
	sfShared     *metrics.Counter
	passKShared  *metrics.Counter
	bodyTooLarge *metrics.Counter
	badJSON      *metrics.Counter
	invalidReq   *metrics.Counter
	taskHits     *metrics.Counter
	taskMisses   *metrics.Counter
	latency      *metrics.Histogram
}

var errOverloaded = errors.New("every place to run or wait is taken")

// New validates the config, applies defaults, enables the database caches,
// and wires the metrics registry.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("server: Config.Model is required")
	}
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.Lib == nil {
		cfg.Lib = liberty.Nangate45()
	}
	if cfg.Designs == nil {
		cfg.Designs = designs.Benchmarks()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 1
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 10
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxRequirementLen <= 0 {
		cfg.MaxRequirementLen = 8 << 10
	}

	cfg.DB.EnableCache(0, retrieveCacheSize)

	s := &Server{
		cfg:    cfg,
		byName: make(map[string]*designs.Design, len(cfg.Designs)),
		places: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		slots:  make(chan struct{}, cfg.Workers),
		flight: newFlightGroup(),
		bases:  make(map[*designs.Design]*baseline, len(cfg.Designs)),
		ckpt:   synth.NewCheckpointStore(synth.DefaultCheckpointCap),
		reg:    metrics.NewRegistry(),
	}
	if cfg.QoRLogPath != "" {
		store, err := qorlog.OpenStore(cfg.QoRLogPath, qorlog.DefaultCacheCap, cfg.QoRLogOpts)
		if err != nil {
			// An unopenable log is a degraded start, not a failed one: the
			// daemon serves correctly from memory, it just recomputes.
			log.Printf("chatlsd: cannot open QoR log %s, running memory-only (results will not survive a restart): %v",
				cfg.QoRLogPath, err)
			store = qorlog.NewMemoryStore(qorlog.DefaultCacheCap)
		}
		s.results = store
	}
	for _, d := range cfg.Designs {
		s.byName[d.Name] = d
		s.bases[d] = new(baseline)
	}

	s.requests = s.reg.NewCounter("chatlsd_requests_total", "customize requests received")
	s.rejected = s.reg.NewCounter("chatlsd_rejected_total", "replies refused with 429 by admission control (coalesced followers of a refused request included)")
	s.errs = s.reg.NewCounter("chatlsd_errors_total", "customize requests that failed")
	s.timeouts = s.reg.NewCounter("chatlsd_timeouts_total", "customize requests that hit the per-request deadline")
	s.sfShared = s.reg.NewCounter("chatlsd_singleflight_shared_total", "requests coalesced onto an identical in-flight request")
	s.passKShared = s.reg.NewCounter("chatlsd_pass_k_samples_shared_total", "Pass@k samples served the QoR an earlier sample of the same request synthesized (requests without a QoR log or a remote tier)")
	s.bodyTooLarge = s.reg.NewCounter("chatlsd_input_rejected_body_too_large_total", "requests rejected with 413 for exceeding the body-size cap")
	s.badJSON = s.reg.NewCounter("chatlsd_input_rejected_bad_json_total", "requests rejected with 400 for malformed or unknown-field JSON")
	s.invalidReq = s.reg.NewCounter("chatlsd_input_rejected_invalid_total", "requests rejected with 422 for semantically invalid fields")
	s.flight.onJoin = s.sfShared.Inc
	s.taskHits = s.reg.NewCounter("chatlsd_task_cache_hits_total", "requests served their design's kept baseline task")
	s.taskMisses = s.reg.NewCounter("chatlsd_task_cache_misses_total", "baseline syntheses run for a design's task")
	s.reg.NewCounterFunc("chatlsd_embed_cache_hits_total", "design embeddings read off the design's snapshot",
		func() int64 { return cfg.DB.CacheStats().EmbedHits })
	s.reg.NewCounterFunc("chatlsd_embed_cache_misses_total", "design embeddings computed (a graph build and a GNN forward pass)",
		func() int64 { return cfg.DB.CacheStats().EmbedMisses })
	s.reg.NewCounterFunc("chatlsd_retrieve_cache_hits_total", "strategy-retrieval cache hits",
		func() int64 { return cfg.DB.CacheStats().RetrieveHits })
	s.reg.NewCounterFunc("chatlsd_retrieve_cache_misses_total", "strategy-retrieval cache misses",
		func() int64 { return cfg.DB.CacheStats().RetrieveMisses })
	s.reg.NewCounterFunc("synth_checkpoint_hits_total", "synthesis runs restored from an elaboration checkpoint",
		func() int64 { return s.ckpt.Stats().Hits })
	s.reg.NewCounterFunc("synth_checkpoint_misses_total", "checkpointable synthesis runs that elaborated fresh",
		func() int64 { return s.ckpt.Stats().Misses })
	s.reg.NewCounterFunc("synth_checkpoint_evictions_total", "elaboration checkpoints displaced by capacity pressure",
		func() int64 { return s.ckpt.Stats().Evictions })
	s.reg.NewCounterFunc("synth_checkpoint_workspace_reuses_total", "workspace acquisitions (runs through the link prefix, restoring or capturing, and snapshot reads) that took a parked workspace",
		func() int64 { return s.ckpt.Stats().Reused })
	s.reg.NewCounterFunc("synth_checkpoint_workspace_allocs_total", "workspace acquisitions (runs through the link prefix, restoring or capturing, and snapshot reads) that made a new, empty one",
		func() int64 { return s.ckpt.Stats().Allocated })
	s.reg.NewCounterFunc("synth_checkpoint_thaws_total", "netlist images thawed into a workspace: a restored run's first netlist read, post-link or compiled, and snapshot reads; a restore that finds the unedited thaw a snapshot read left in its workspace uses it and thaws nothing",
		func() int64 { return s.ckpt.Stats().Thaws })
	s.reg.NewCounterFunc("synth_checkpoint_restore_thaws_skipped_total", "restores whose post-link image was never thawed: the compile's result was served instead, or the run ended before any command read the netlist",
		func() int64 { return s.ckpt.Stats().ThawsSkipped })
	s.reg.NewCounterFunc("synth_checkpoint_derived_hits_total", "first compiles of a restored design served from the store: no pass run, the compiled netlist thawed only when a command reads it",
		func() int64 { return s.ckpt.Stats().DerivedHits })
	s.reg.NewCounterFunc("synth_checkpoint_derived_misses_total", "first compiles of a restored design that ran the compile",
		func() int64 { return s.ckpt.Stats().DerivedMisses })
	s.reg.NewCounterFunc("synth_checkpoint_derived_captures_total", "compiled netlists frozen into the store, on a key's second computation",
		func() int64 { return s.ckpt.Stats().DerivedCaptures })
	s.reg.NewCounterFunc("synth_checkpoint_derived_reports_served_total", "report texts served from a derived result instead of computed: no thaw, no analysis",
		func() int64 { return s.ckpt.Stats().DerivedReportsServed })
	s.reg.NewGaugeFunc("synth_checkpoint_derived_bytes", "bytes the store's derived level holds: column bytes of the compiled netlists and the text of the kept reports",
		func() int64 { return s.ckpt.DerivedBytes() })
	s.reg.NewCounterFunc("qorlog_hits_total", "sample syntheses served from the durable QoR store",
		func() int64 { return s.results.Stats().Hits })
	s.reg.NewCounterFunc("qorlog_misses_total", "QoR store lookups that ran the synthesis tool",
		func() int64 { return s.results.Stats().Misses })
	s.reg.NewCounterFunc("qorlog_appends_total", "QoR records appended to the log this process",
		func() int64 { return s.results.Stats().Appends })
	s.reg.NewCounterFunc("qorlog_append_errors_total", "failed QoR-log append attempts",
		func() int64 { return s.results.Stats().AppendErrors })
	s.reg.NewCounterFunc("qorlog_records_recovered_total", "QoR records replayed from the log at startup",
		func() int64 { return s.results.Stats().Recovered })
	s.reg.NewCounterFunc("qorlog_dropped_bytes_total", "torn or corrupt trailing log bytes truncated at startup",
		func() int64 { return s.results.Stats().DroppedBytes })
	s.reg.NewCounterFunc("qorlog_warm_records_total", "QoR records the log served warm at startup",
		func() int64 { return s.results.Stats().Warmed })
	s.reg.NewGaugeFunc("qorlog_degraded", "1 once QoR-log writes were abandoned (memory-only mode)",
		func() int64 {
			if s.results.Degraded() {
				return 1
			}
			return 0
		})
	s.reg.NewGaugeFunc("chatlsd_queue_depth", "admitted requests waiting for a worker",
		func() int64 { return int64(max(0, len(s.places)-len(s.slots))) })
	s.reg.NewGaugeFunc("chatlsd_workers_busy", "workers currently executing a request",
		func() int64 { return int64(len(s.slots)) })
	s.reg.NewGaugeFunc("overload_limit", "bound on admitted-but-unfinished requests (workers + queue depth)",
		func() int64 { return int64(cap(s.places)) })
	s.reg.NewGaugeFunc("overload_inflight", "requests admitted and not yet finished",
		func() int64 { return int64(len(s.places)) })
	s.reg.NewCounterFunc("overload_shed_total", "replies refused with 429 at the admission bound (the same count as chatlsd_rejected_total)",
		s.rejected.Value)
	if rc := cfg.RemoteCache; rc != nil {
		s.reg.NewCounterFunc("remotecache_client_qor_hits_total", "QoR records served by the remote result tier",
			func() int64 { return rc.Stats().QoRHits })
		s.reg.NewCounterFunc("remotecache_client_qor_misses_total", "remote result-tier QoR lookups that missed",
			func() int64 { return rc.Stats().QoRMisses })
		s.reg.NewCounterFunc("remotecache_client_qor_puts_total", "QoR records published to the remote result tier",
			func() int64 { return rc.Stats().QoRPuts })
		s.reg.NewCounterFunc("remotecache_client_dropped_total", "remote-tier operations dropped by degradation or errors",
			func() int64 { return rc.Stats().Dropped })
		s.reg.NewGaugeFunc("remotecache_client_degraded", "1 while the remote tier is unreachable (local-only mode)",
			func() int64 {
				if rc.Degraded() {
					return 1
				}
				return 0
			})
		s.reg.NewGaugeFunc("breaker_state_remotecache",
			"circuit-breaker state for the remote result tier (0=closed, 1=half-open, 2=open)",
			func() int64 { return int64(rc.BreakerState()) })
	}
	s.latency = s.reg.NewHistogram("chatlsd_customize_seconds", "end-to-end customize latency", metrics.DefaultLatencyBuckets)

	// What this server's requests did in the stages they reached, counted
	// into the Counts every request's context carries (see runCustomize).
	s.work = &work.Counts{DirtyNodes: s.reg.NewHistogram("sta_dirty_nodes", "nets and cells recomputed per incremental timing update",
		[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384})}
	for _, m := range []struct {
		name, help string
		k          work.Kind
	}{
		{"chatlsd_mentor_cache_hits_total", "CircuitMentor analyses read off the design's snapshot", work.MentorHits},
		{"chatlsd_mentor_cache_misses_total", "CircuitMentor analyses computed (a timing pass over the design's netlist, read from its checkpoint or elaborated)", work.MentorMisses},
		{"chatlsd_mentor_snapshot_reads_total", "CircuitMentor analyses computed on the post-link snapshot in the checkpoint store (no parse, no elaboration)", work.SnapshotReads},
		{"sta_full_analyses_total", "full static timing analyses run", work.FullAnalyses},
		{"sta_incremental_updates_total", "incremental timing updates run", work.IncrementalUpdates},
		{"netlist_elaborations_total", "designs elaborated from parsed sources", work.Elaborations},
		{"verilog_parses_total", "Verilog source files parsed", work.Parses},
	} {
		s.reg.NewCounterFunc(m.name, m.help, func() int64 { return s.work.Get(m.k) })
	}
	// What the collector is fed and how often it runs, process-wide: a
	// request's heap bytes and objects are the differences across it.
	s.reg.NewCounterFunc("go_gc_cycles_total", "completed garbage-collection cycles (runtime/metrics /gc/cycles/total)",
		runtimeCounter("/gc/cycles/total:gc-cycles"))
	s.reg.NewCounterFunc("go_heap_alloc_bytes_total", "bytes allocated on the heap (runtime/metrics /gc/heap/allocs:bytes)",
		runtimeCounter("/gc/heap/allocs:bytes"))
	s.reg.NewCounterFunc("go_heap_alloc_objects_total", "objects allocated on the heap (runtime/metrics /gc/heap/allocs:objects)",
		runtimeCounter("/gc/heap/allocs:objects"))

	return s, nil
}

// runtimeCounter reads the cumulative runtime/metrics counter name.
func runtimeCounter(name string) func() int64 {
	return func() int64 {
		sample := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample)
		if sample[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return int64(sample[0].Value.Uint64())
	}
}

// Close is Shutdown with no deadline, for callers that want a func().
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// Shutdown is the stop path: it refuses new customize requests, waits until
// ctx expires for the ones in flight (running or still waiting for a worker)
// to reply, then flushes and closes the QoR log so every completed result is
// durable for the next warm restart. A deadline overrun returns ctx.Err() —
// the log still closes (appends after close land only in memory), and the
// requests past the deadline are abandoned to the process exit. Idempotent;
// the first caller wins.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if !first {
		return nil
	}
	drained := make(chan struct{})
	go func() {
		s.active.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if cerr := s.results.Close(); err == nil {
		err = cerr
	}
	return err
}

// enter registers one customize handler as in flight, or reports false once
// shutdown has begun. The caller owes s.active.Done().
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.active.Add(1)
	return true
}

// QoRStats exposes the QoR store's counters (zeros when no log is
// configured) — the daemon logs recovery results at startup from these.
func (s *Server) QoRStats() qorlog.StoreStats { return s.results.Stats() }

// resultStore picks the result store a request's samples evaluate against:
// when a remote cache is wired, a two-level tier over the local store (which
// may be nil — *qorlog.Store is nil-safe — leaving a remote-only tier) whose
// remote calls end with ctx, the request's deadline; the local store alone
// otherwise. The explicit nil return keeps the interface nil (a typed-nil
// *qorlog.Store would read as "caching enabled" to the evaluator).
func (s *Server) resultStore(ctx context.Context) chatls.ResultStore {
	if s.cfg.RemoteCache != nil {
		return remotecache.NewTier(ctx, s.results, s.cfg.RemoteCache)
	}
	if s.results != nil {
		return s.results
	}
	return nil
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/customize", s.handleCustomize)
	mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// customizeRequest is the POST /v1/customize body.
type customizeRequest struct {
	Design      string `json:"design"`
	Requirement string `json:"requirement,omitempty"`
	Pipeline    string `json:"pipeline,omitempty"` // chatls (default), gpt4o, claude
	K           int    `json:"k,omitempty"`
}

// sampleJSON is one Pass@k attempt in the response.
type sampleJSON struct {
	QoR      *synth.QoR `json:"qor,omitempty"`
	Error    string     `json:"error,omitempty"`
	Degraded []string   `json:"degraded,omitempty"`
}

// customizeResponse is the POST /v1/customize reply.
type customizeResponse struct {
	Design     string       `json:"design"`
	Pipeline   string       `json:"pipeline"`
	K          int          `json:"k"`
	Baseline   synth.QoR    `json:"baseline"`
	Best       synth.QoR    `json:"best"`
	BestSample int          `json:"best_sample"`
	Valid      int          `json:"valid"`
	Improved   bool         `json:"improved"`
	Script     string       `json:"script,omitempty"`
	Samples    []sampleJSON `json:"samples"`
}

// errorResponse is the JSON error body on every non-2xx reply. Retryable is
// true exactly for the transient statuses (429 overloaded, 503 draining, 504
// deadline): the same request may succeed later, and the reply carries a
// Retry-After header hinting when. 4xx input errors are not retryable — resending the
// same bytes fails the same way.
type errorResponse struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes the uniform JSON error body, attaching a constant
// one-second Retry-After hint to the retryable statuses so well-behaved
// clients back off instead of hammering an overloaded server.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	retryable := code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorResponse{Error: msg, Retryable: retryable})
}

// decodeCustomize decodes and validates a customize request body. It is the
// trust boundary for /v1/customize: arbitrary bytes in, either a normalized
// request out or an HTTP status in {413, 400, 422} with a safe message —
// never a panic, never a 500 for any input shape. The byte-cap and syntax
// layers (413 over the cap, 400 for bad JSON / unknown fields / trailing
// data) are the shared inputlimits.DecodeJSONRequest guard; well-formed JSON
// with invalid field values is 422. Design-name existence is checked by the
// caller (404), since it depends on server state rather than the bytes
// themselves.
func (s *Server) decodeCustomize(w http.ResponseWriter, r *http.Request) (customizeRequest, int, error) {
	var req customizeRequest
	if code, err := inputlimits.DecodeJSONRequest(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return req, code, err
	}
	if len(req.Requirement) > s.cfg.MaxRequirementLen {
		return req, http.StatusUnprocessableEntity,
			fmt.Errorf("requirement length %d exceeds limit %d", len(req.Requirement), s.cfg.MaxRequirementLen)
	}
	if req.Requirement == "" {
		req.Requirement = chatls.DefaultRequirement
	}
	if req.Pipeline == "" {
		req.Pipeline = "chatls"
	}
	switch req.Pipeline {
	case "chatls", "gpt4o", "claude":
	default:
		return req, http.StatusUnprocessableEntity, fmt.Errorf("unknown pipeline %q", req.Pipeline)
	}
	if req.K < 0 {
		return req, http.StatusUnprocessableEntity, fmt.Errorf("k %d is negative", req.K)
	}
	if req.K == 0 {
		req.K = s.cfg.DefaultK
	}
	if req.K > s.cfg.MaxK {
		return req, http.StatusUnprocessableEntity, fmt.Errorf("k %d exceeds limit %d", req.K, s.cfg.MaxK)
	}
	return req, http.StatusOK, nil
}

func (s *Server) handleCustomize(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	defer s.active.Done()
	s.requests.Inc()

	req, code, err := s.decodeCustomize(w, r)
	if err != nil {
		switch code {
		case http.StatusRequestEntityTooLarge:
			s.bodyTooLarge.Inc()
		case http.StatusBadRequest:
			s.badJSON.Inc()
		case http.StatusUnprocessableEntity:
			s.invalidReq.Inc()
		}
		s.writeError(w, code, err.Error())
		return
	}
	d, ok := s.byName[req.Design]
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown design %q", req.Design))
		return
	}

	// Identical concurrent requests share one execution (and one worker
	// slot); the key is every input that shapes the result.
	key := fmt.Sprintf("%s\x00%s\x00%s\x00%d", req.Design, req.Requirement, req.Pipeline, req.K)
	v, _, err := s.flight.Do(key, func() (any, error) { return s.admit(d, req) })
	if err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			// Counted per reply: followers coalesced onto a refused leader
			// are refused too.
			s.rejected.Inc()
			s.writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
		case errors.Is(err, resilience.ErrTimeout):
			s.writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		default:
			s.writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, v.(*customizeResponse))
}

// admit is the whole admission path of one deduplicated customization, run
// on the singleflight leader's handler goroutine. Every step it takes is
// undone by a defer, so a panic below it (net/http recovers those per
// connection) leaves no place or worker held.
func (s *Server) admit(d *designs.Design, req customizeRequest) (*customizeResponse, error) {
	// A place to run or wait, taken without blocking: a request that finds
	// all Workers+QueueDepth of them held is refused rather than queued.
	select {
	case s.places <- struct{}{}:
	default:
		return nil, errOverloaded
	}
	defer func() { <-s.places }()
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	return s.runCustomize(d, req)
}

// runCustomize executes one admitted customization on its worker slot.
// The deadline derives from context.Background(), not the client's request
// context, so a client disconnect does not abort work a coalesced follower
// may still be waiting on — and so graceful shutdown drains rather than
// cancels. The context carries the server's work.Counts, so every stage the
// request reaches counts into this server's /metrics.
func (s *Server) runCustomize(d *designs.Design, req customizeRequest) (*customizeResponse, error) {
	if h := s.cfg.BeforeWork; h != nil {
		h()
	}
	start := time.Now()
	defer func() { s.latency.ObserveDuration(time.Since(start)) }()

	ctx, cancel := context.WithTimeout(work.With(context.Background(), s.work), s.cfg.RequestTimeout)
	defer cancel()

	task, baseQoR, err := s.baselineTask(ctx, d)
	if err != nil {
		s.countErr(err)
		return nil, err
	}
	// Shallow copy: the kept task must keep its pristine requirement.
	t := *task
	t.Requirement = req.Requirement

	// Without a QoR log or a tier, the request's samples share a store of
	// their own, so each distinct script is synthesized once.
	opts, shared := chatls.EvalOptions{Workers: 1, Checkpoints: s.ckpt, Results: s.resultStore(ctx)}.ShareRepeats(req.K)
	res, err := chatls.EvalTaskOpts(ctx, s.newPipeline(req.Pipeline), &t, baseQoR, req.K, s.cfg.Lib, opts)
	s.passKShared.Add(shared.Stats().Hits)
	if err != nil {
		s.countErr(err)
		return nil, err
	}

	out := &customizeResponse{
		Design:     res.Design,
		Pipeline:   req.Pipeline,
		K:          res.K,
		Baseline:   res.Baseline,
		Best:       res.Best,
		BestSample: res.BestSample,
		Valid:      res.Valid,
		Improved:   res.Improved(),
		Samples:    make([]sampleJSON, 0, len(res.Samples)),
	}
	if res.BestSample >= 0 {
		out.Script = res.Samples[res.BestSample].Script
	}
	for _, smp := range res.Samples {
		out.Samples = append(out.Samples, sampleJSON{QoR: smp.QoR, Error: smp.Err, Degraded: smp.Degraded})
	}
	return out, nil
}

func (s *Server) countErr(err error) {
	if errors.Is(err, resilience.ErrTimeout) {
		s.timeouts.Inc()
	} else {
		s.errs.Inc()
	}
}

// baselineTask returns the kept baseline synthesis of a served design,
// running it when none is kept yet; an error is not kept. Requests for a
// design whose baseline is running wait for it.
func (s *Server) baselineTask(ctx context.Context, d *designs.Design) (*chatls.Task, synth.QoR, error) {
	b := s.bases[d]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.task != nil {
		s.taskHits.Inc()
		return b.task, b.qor, nil
	}
	s.taskMisses.Inc()
	task, qor, err := chatls.NewTaskWith(ctx, d, s.cfg.Lib, s.ckpt)
	if err != nil {
		return nil, synth.QoR{}, err
	}
	b.task, b.qor = task, qor
	return task, qor, nil
}

// newPipeline builds a per-request pipeline instance over the shared
// immutable model and database.
func (s *Server) newPipeline(name string) chatls.Pipeline {
	switch name {
	case "gpt4o":
		return &chatls.RawPipeline{Model: llm.New(llm.GPT4o, s.cfg.Seed)}
	case "claude":
		return &chatls.RawPipeline{Model: llm.New(llm.Claude35, s.cfg.Seed)}
	default:
		p := chatls.NewChatLS(s.cfg.Model, s.cfg.DB)
		p.Inject = s.cfg.PipelineInject // the chaos/test fault layer
		return p
	}
}

// designJSON is one entry of GET /v1/designs.
type designJSON struct {
	Name     string   `json:"name"`
	Top      string   `json:"top"`
	Category string   `json:"category"`
	Period   float64  `json:"period_ns"`
	Traits   []string `json:"traits,omitempty"`
}

func (s *Server) handleDesigns(w http.ResponseWriter, _ *http.Request) {
	out := make([]designJSON, 0, len(s.cfg.Designs))
	for _, d := range s.cfg.Designs {
		out = append(out, designJSON{Name: d.Name, Top: d.Top, Category: d.Category, Period: d.Period, Traits: d.Traits})
	}
	writeJSON(w, http.StatusOK, out)
}

// overloadJSON is the overload-protection state in the health report: the
// admission bound and the places held, the 429s replied so far, and the
// remote tier's circuit-breaker position (present only when a tier is
// configured) — what an operator (or the chaos harness) checks to see
// whether the server has recovered after an incident.
type overloadJSON struct {
	Limit     int               `json:"limit"`
	Inflight  int               `json:"inflight"`
	ShedTotal int64             `json:"shed_total"`
	Breakers  map[string]string `json:"breakers"`
}

// healthzResponse echoes the request limits and the parser budgets so an
// operator can confirm what the running daemon actually enforces: the
// request limits as configured, the parser budgets as shipped.
type healthzResponse struct {
	Status            string                        `json:"status"`
	MaxBodyBytes      int64                         `json:"max_body_bytes"`
	MaxRequirementLen int                           `json:"max_requirement_len"`
	MaxK              int                           `json:"max_k"`
	ParserBudgets     map[string]inputlimits.Budget `json:"parser_budgets"`
	Overload          overloadJSON                  `json:"overload"`
	// ExpertDraftsSwept counts the expert-entry designs the database build
	// synthesized under the palette because the checked-in table had no row
	// for them: 0 for the shipped corpus and library.
	ExpertDraftsSwept int `json:"expert_drafts_swept"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	breakers := map[string]string{}
	if rc := s.cfg.RemoteCache; rc != nil {
		breakers[resilience.CompRemoteCache] = rc.BreakerState().String()
	}
	budgets := map[string]inputlimits.Budget{}
	for _, surface := range []string{inputlimits.SurfaceVerilog, inputlimits.SurfaceScript, inputlimits.SurfaceCypher} {
		budgets[surface] = inputlimits.For(surface)
	}
	_, swept := s.cfg.DB.ExpertDrafts()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:            "ok",
		MaxBodyBytes:      s.cfg.MaxBodyBytes,
		MaxRequirementLen: s.cfg.MaxRequirementLen,
		MaxK:              s.cfg.MaxK,
		ParserBudgets:     budgets,
		Overload: overloadJSON{
			Limit:     cap(s.places),
			Inflight:  len(s.places),
			ShedTotal: s.rejected.Value(),
			Breakers:  breakers,
		},
		ExpertDraftsSwept: swept,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}
