// Package server is the serving layer for the ChatLS pipeline: an HTTP JSON
// API that customizes synthesis scripts on demand. It layers, on top of the
// one-shot experiment harness, the machinery a long-lived daemon needs:
//
//   - one admission function (admit): cost-based load shedding when the
//     learned end-to-end request cost cannot fit the deadline (503 +
//     Retry-After), then a fixed Workers+QueueDepth bound on
//     admitted-but-unfinished requests (full → 429), then a Workers-sized
//     semaphore bounding the ones that run at once,
//   - a brownout mode that clamps Pass@k to one sample under sustained
//     shedding,
//   - per-stage circuit breakers (internal/resilience) around the pipeline's
//     auxiliary components, so a persistently failing stage is skipped
//     immediately instead of burning retries on every request,
//   - a per-request deadline (resilience timeout → 504),
//   - singleflight deduplication of identical in-flight requests,
//   - LRU caches for the expensive idempotent stages (baseline task
//     construction, design-graph embeddings, strategy retrieval),
//   - a metrics registry exposed in Prometheus text format,
//   - graceful shutdown that drains in-flight work.
//
// Concurrency model: the llm.Model, synthrag.Database, and liberty.Library
// shared across requests are immutable at serving time; each request gets
// its own pipeline instance (cheap — a pair of struct allocations) and its
// own shallow copy of the cached baseline task, so no per-call state is
// ever shared between goroutines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	chatls "repro"
	"repro/internal/batch"
	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/inputlimits"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/overload"
	"repro/internal/qorlog"
	"repro/internal/remotecache"
	"repro/internal/resilience"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/synthrag"
	"repro/internal/verilog"
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

	// Per-stage circuit-breaker tuning for the pipeline's auxiliary
	// components (mentor, RAG embed/retrieve, expert): BreakerFailures
	// consecutive failures trip a stage open (default 5), it dwells open
	// for BreakerOpenFor (default 5s), then admits one half-open probe.
	BreakerFailures int
	BreakerOpenFor  time.Duration
	// Costs, when non-nil, is a shared (possibly pre-seeded) per-stage
	// cost model; nil gets a fresh one. The chaos harness injects a
	// primed model to exercise cost-based shedding deterministically.
	Costs *overload.CostModel
	// BeforeWork, when set, runs at the start of every customization, on
	// its worker slot — the chaos harness injects latency spikes here, and
	// tests hold a worker in place with it.
	BeforeWork func()
	// PipelineInject, when set, is installed as the fault injector on
	// every per-request chatls pipeline (tests and the chaos harness).
	PipelineInject *resilience.Injector

	// BatchWindow and BatchMax tune the continuous-batching admission queue
	// over the database's embedding models: concurrent cache-missing embed
	// requests arriving within BatchWindow coalesce into one stacked forward
	// pass, flushing early once BatchMax requests are queued. Defaults are
	// batch.DefaultWindow / batch.DefaultMaxBatch; DisableBatching turns the
	// queue off entirely (requests embed serially, as before).
	BatchWindow     time.Duration
	BatchMax        int
	DisableBatching bool

	// QoRLogPath, when non-empty, opens the durable QoR log there: every
	// sample synthesis outcome is appended, and a restarted daemon warm-fills
	// its result cache from the log instead of recomputing (warm restart).
	// Corrupt or torn trailing records are truncated at open; an unopenable
	// log degrades the daemon to memory-only result caching with a warning
	// rather than failing startup. Empty disables result caching.
	QoRLogPath string
	// QoRLogOpts tunes recompaction and fault injection (tests).
	QoRLogOpts qorlog.Options

	// RemoteCache, when non-nil, connects this replica to a shared
	// chatlscached result tier: QoR lookups read through to it, fresh
	// results are written through to it, elaboration checkpoints are
	// shared by content key, and Pass@k samples claim fleet-wide leases so
	// concurrent replicas synthesize each unique (library, sources, script)
	// exactly once between them. A dead or unreachable tier degrades the
	// replica to local-only operation with a single warning; results are
	// bit-identical with or without it.
	RemoteCache *remotecache.Client

	DefaultK int // Pass@k when the request omits k (default 1)
	MaxK     int // upper bound on requested k (default 10)

	MaxBodyBytes      int64 // request-body cap, enforced before decoding (default 1 MiB)
	MaxRequirementLen int   // requirement string length cap (default 8 KiB)
}

// LRU sizes of the serving caches. The QoR record cache and the
// elaboration-checkpoint store take their packages' defaults.
const (
	taskCacheSize     = 16  // baseline-task LRU entries
	embedCacheSize    = 64  // design-embedding LRU entries
	retrieveCacheSize = 256 // strategy-retrieval LRU entries
)

// taskEntry is one cached baseline synthesis: the pristine task (requirement
// left at the default — requests get a copy) and its QoR.
type taskEntry struct {
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
	tasks   *lru.Cache[string, taskEntry]
	ckpt    *synth.CheckpointStore // process-wide: baselines and Pass@k samples alike restore post-link state from it
	results *qorlog.Store          // nil when QoRLogPath == ""
	tier    *remotecache.Tier      // nil when RemoteCache is nil
	reg     *metrics.Registry

	// mu orders closed against active.Add, so Shutdown's Wait never races
	// the Add of a handler that read closed just before it was set.
	mu     sync.Mutex
	closed bool
	active sync.WaitGroup // customize handlers in flight

	brownout *overload.Brownout
	costs    *overload.CostModel
	breakers map[string]*resilience.Breaker // per-stage, shared across requests

	sheds     atomic.Int64 // requests admit refused: no place left, or expected cost exceeds the deadline
	shedProbe atomic.Int64 // deterministic 1-in-N probe-through counter for cost sheds

	requests     *metrics.Counter
	rejected     *metrics.Counter
	errs         *metrics.Counter
	timeouts     *metrics.Counter
	sfShared     *metrics.Counter
	bodyTooLarge *metrics.Counter
	badJSON      *metrics.Counter
	invalidReq   *metrics.Counter
	latency      *metrics.Histogram
}

var (
	errOverloaded = errors.New("every place to run or wait is taken")
	// errShed marks a cost-based shed: the learned end-to-end request cost
	// no longer fits the per-request deadline, so running the work could
	// only produce a 504 after burning a worker.
	errShed = errors.New("expected request cost exceeds the deadline")
)

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

	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = batch.DefaultWindow
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = batch.DefaultMaxBatch
	}

	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 5
	}
	if cfg.BreakerOpenFor <= 0 {
		cfg.BreakerOpenFor = 5 * time.Second
	}
	if cfg.Costs == nil {
		cfg.Costs = overload.NewCostModel(0)
	}

	cfg.DB.EnableCache(embedCacheSize, retrieveCacheSize)
	if !cfg.DisableBatching {
		cfg.DB.EnableBatching(cfg.BatchWindow, cfg.BatchMax)
	}

	s := &Server{
		cfg:      cfg,
		byName:   make(map[string]*designs.Design, len(cfg.Designs)),
		places:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		slots:    make(chan struct{}, cfg.Workers),
		flight:   newFlightGroup(),
		tasks:    lru.New[string, taskEntry](taskCacheSize),
		ckpt:     synth.NewCheckpointStore(synth.DefaultCheckpointCap),
		reg:      metrics.NewRegistry(),
		costs:    cfg.Costs,
		brownout: overload.NewBrownout(overload.BrownoutConfig{}),
	}
	s.breakers = make(map[string]*resilience.Breaker, 4)
	for _, comp := range []string{
		resilience.CompMentor,
		resilience.CompRAGEmbed,
		resilience.CompRAGRetrieve,
		resilience.CompExpert,
	} {
		comp := comp
		s.breakers[comp] = resilience.NewBreaker(resilience.BreakerConfig{
			Failures: cfg.BreakerFailures,
			OpenFor:  cfg.BreakerOpenFor,
			OnOpen: func() {
				log.Printf("chatlsd: circuit breaker for %s opened (stage skipped until recovery probes succeed)", comp)
			},
			OnClose: func() {
				log.Printf("chatlsd: circuit breaker for %s closed (stage restored)", comp)
			},
		})
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
	if cfg.RemoteCache != nil {
		// The tier layers the remote cache over the local store (which may
		// be nil — *qorlog.Store is nil-safe — leaving a remote-only tier).
		s.tier = remotecache.NewTier(s.results, cfg.RemoteCache)
		s.ckpt.SetRemote(cfg.RemoteCache)
	}
	for _, d := range cfg.Designs {
		s.byName[d.Name] = d
	}

	s.requests = s.reg.NewCounter("chatlsd_requests_total", "customize requests received")
	s.rejected = s.reg.NewCounter("chatlsd_rejected_total", "requests rejected by admission control")
	s.errs = s.reg.NewCounter("chatlsd_errors_total", "customize requests that failed")
	s.timeouts = s.reg.NewCounter("chatlsd_timeouts_total", "customize requests that hit the per-request deadline")
	s.sfShared = s.reg.NewCounter("chatlsd_singleflight_shared_total", "requests coalesced onto an identical in-flight request")
	s.bodyTooLarge = s.reg.NewCounter("chatlsd_input_rejected_body_too_large_total", "requests rejected with 413 for exceeding the body-size cap")
	s.badJSON = s.reg.NewCounter("chatlsd_input_rejected_bad_json_total", "requests rejected with 400 for malformed or unknown-field JSON")
	s.invalidReq = s.reg.NewCounter("chatlsd_input_rejected_invalid_total", "requests rejected with 422 for semantically invalid fields")
	s.flight.onJoin = s.sfShared.Inc
	s.reg.NewCounterFunc("chatlsd_task_cache_hits_total", "baseline-task cache hits", s.tasks.Hits)
	s.reg.NewCounterFunc("chatlsd_task_cache_misses_total", "baseline-task cache misses", s.tasks.Misses)
	s.reg.NewCounterFunc("chatlsd_embed_cache_hits_total", "design-embedding cache hits",
		func() int64 { return cfg.DB.CacheStats().EmbedHits })
	s.reg.NewCounterFunc("chatlsd_embed_cache_misses_total", "design-embedding cache misses",
		func() int64 { return cfg.DB.CacheStats().EmbedMisses })
	s.reg.NewCounterFunc("chatlsd_retrieve_cache_hits_total", "strategy-retrieval cache hits",
		func() int64 { return cfg.DB.CacheStats().RetrieveHits })
	s.reg.NewCounterFunc("chatlsd_retrieve_cache_misses_total", "strategy-retrieval cache misses",
		func() int64 { return cfg.DB.CacheStats().RetrieveMisses })
	s.reg.NewCounterFunc("chatlsd_mentor_cache_hits_total", "CircuitMentor analyses served from the per-design memo (process-wide)",
		func() int64 { return circuitmentor.Stats().Hits })
	s.reg.NewCounterFunc("chatlsd_mentor_cache_misses_total", "CircuitMentor analyses computed (a timing pass over the design's netlist, read from its checkpoint or elaborated)",
		func() int64 { return circuitmentor.Stats().Misses })
	s.reg.NewCounterFunc("chatlsd_mentor_snapshot_reads_total", "CircuitMentor analyses computed on the post-link snapshot in the checkpoint store (no parse, no elaboration)",
		func() int64 { return circuitmentor.Stats().SnapshotReads })
	s.reg.NewCounterFunc("synth_checkpoint_hits_total", "synthesis runs restored from an elaboration checkpoint",
		func() int64 { return s.ckpt.Stats().Hits })
	s.reg.NewCounterFunc("synth_checkpoint_misses_total", "checkpointable synthesis runs that elaborated fresh",
		func() int64 { return s.ckpt.Stats().Misses })
	s.reg.NewCounterFunc("synth_checkpoint_evictions_total", "elaboration checkpoints displaced by capacity pressure",
		func() int64 { return s.ckpt.Stats().Evictions })
	s.reg.NewCounterFunc("synth_checkpoint_workspace_reuses_total", "workspace acquisitions (restores and snapshot reads) that took a parked workspace",
		func() int64 { return s.ckpt.Stats().Reused })
	s.reg.NewCounterFunc("synth_checkpoint_workspace_allocs_total", "workspace acquisitions (restores and snapshot reads) that made a new, empty one",
		func() int64 { return s.ckpt.Stats().Allocated })
	s.reg.NewCounterFunc("synth_checkpoint_restore_thaws_skipped_total", "restores whose post-link image was never thawed: the compile's result was served instead, or the run ended before any command read the netlist",
		func() int64 { return s.ckpt.Stats().ThawsSkipped })
	s.reg.NewCounterFunc("synth_checkpoint_derived_hits_total", "first compiles of a restored design served the netlist they size (after the structural passes and, with -retime, the register moves) from the store",
		func() int64 { return s.ckpt.Stats().DerivedHits })
	s.reg.NewCounterFunc("synth_checkpoint_derived_misses_total", "first compiles of a restored design that computed the netlist they size",
		func() int64 { return s.ckpt.Stats().DerivedMisses })
	s.reg.NewCounterFunc("synth_checkpoint_derived_captures_total", "pre-sizing netlists (post-retime under -retime) frozen into the store, on a key's second computation",
		func() int64 { return s.ckpt.Stats().DerivedCaptures })
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
	s.reg.NewCounterFunc("qorlog_recompactions_total", "QoR-log recompaction rewrites completed",
		func() int64 { return s.results.Stats().Recompacted })
	s.reg.NewCounterFunc("qorlog_warm_records_total", "QoR records warm-filled into the cache at startup",
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
	s.reg.NewCounterFunc("overload_shed_total", "requests shed by overload protection (no place left plus cost-based sheds)",
		s.sheds.Load)
	s.reg.NewGaugeFunc("overload_brownout_active", "1 while brownout mode is degrading service (Pass@k clamped to 1)",
		func() int64 {
			if s.brownout.Active() {
				return 1
			}
			return 0
		})
	s.reg.NewCounterFunc("overload_brownout_entries_total", "times brownout mode has been entered",
		s.brownout.Entries)
	for comp, br := range s.breakers {
		br := br
		s.reg.NewGaugeFunc("breaker_state_"+metricName(comp),
			"circuit-breaker state for "+comp+" (0=closed, 1=half-open, 2=open)",
			func() int64 { return int64(br.State()) })
	}
	if rc := cfg.RemoteCache; rc != nil {
		s.reg.NewCounterFunc("remotecache_client_qor_hits_total", "QoR records served by the remote result tier",
			func() int64 { return rc.Stats().QoRHits })
		s.reg.NewCounterFunc("remotecache_client_qor_misses_total", "remote result-tier QoR lookups that missed",
			func() int64 { return rc.Stats().QoRMisses })
		s.reg.NewCounterFunc("remotecache_client_qor_puts_total", "QoR records published to the remote result tier",
			func() int64 { return rc.Stats().QoRPuts })
		s.reg.NewCounterFunc("remotecache_client_checkpoint_hits_total", "elaboration checkpoints restored from the remote tier",
			func() int64 { return rc.Stats().BlobHits })
		s.reg.NewCounterFunc("remotecache_client_checkpoint_misses_total", "remote checkpoint lookups that missed",
			func() int64 { return rc.Stats().BlobMisses })
		s.reg.NewCounterFunc("remotecache_client_checkpoint_puts_total", "elaboration checkpoints published to the remote tier",
			func() int64 { return rc.Stats().BlobPuts })
		s.reg.NewCounterFunc("remotecache_client_leases_granted_total", "fleet-wide work leases this replica was granted",
			func() int64 { return rc.Stats().LeasesGranted })
		s.reg.NewCounterFunc("remotecache_client_lease_waits_total", "times this replica waited on a sibling's lease",
			func() int64 { return rc.Stats().LeaseWaits })
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

	// Timing-engine counters are process-wide (the sta package keeps them as
	// plain atomics so it stays free of a metrics dependency); the daemon is
	// the natural place to expose them.
	s.reg.NewCounterFunc("sta_full_analyses_total", "full static timing analyses run",
		func() int64 { return int64(sta.FullAnalyses()) })
	s.reg.NewCounterFunc("sta_incremental_updates_total", "incremental timing updates run",
		func() int64 { return int64(sta.IncrementalUpdates()) })
	s.reg.NewCounterFunc("netlist_elaborations_total", "designs elaborated from parsed sources (process-wide, the database build included)",
		func() int64 { return int64(netlist.Elaborations()) })
	s.reg.NewCounterFunc("verilog_parses_total", "Verilog source files parsed (process-wide, the database build included)",
		func() int64 { return int64(verilog.Parses()) })
	staDirty := s.reg.NewHistogram("sta_dirty_nodes", "nets and cells recomputed per incremental timing update",
		[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384})
	sta.SetDirtyNodesObserver(func(n int) { staDirty.Observe(float64(n)) })

	if !cfg.DisableBatching {
		batchSize := s.reg.NewHistogram("chatlsd_batch_size", "embedding requests coalesced per batcher flush",
			[]float64{1, 2, 4, 8, 16, 32, 64})
		batchWait := s.reg.NewHistogram("chatlsd_batch_wait_ns", "oldest request's queue wait per batcher flush, nanoseconds",
			[]float64{1e3, 1e4, 1e5, 5e5, 1e6, 2e6, 5e6, 1e7})
		cfg.DB.SetBatchObserver(func(size int, wait time.Duration) {
			batchSize.Observe(float64(size))
			batchWait.Observe(float64(wait.Nanoseconds()))
		})
	}

	return s, nil
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

// resultStore picks the result store samples evaluate against: the two-level
// tier when a remote cache is wired, the local store alone otherwise. The
// explicit nil return keeps the interface nil (a typed-nil *qorlog.Store
// would read as "caching enabled" to the evaluator).
func (s *Server) resultStore() chatls.ResultStore {
	if s.tier != nil {
		return s.tier
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
	// Degraded lists request-level degradations ("brownout" when the
	// server clamped k under sustained overload); per-sample pipeline
	// degradations live on the samples.
	Degraded []string `json:"degraded,omitempty"`
}

// errorResponse is the JSON error body on every non-2xx reply. Retryable is
// true exactly for the transient overload/timeout statuses (429, 503, 504):
// the same request may succeed later, and the reply carries a Retry-After
// header hinting when. 4xx input errors are not retryable — resending the
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

// writeError writes the uniform JSON error body, attaching a Retry-After
// hint (derived from the learned end-to-end request cost, minimum 1s) to
// the retryable statuses so well-behaved clients back off instead of
// hammering an overloaded server.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	retryable := code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
	if retryable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, code, errorResponse{Error: msg, Retryable: retryable})
}

// retryAfterSeconds rounds the expected request cost up to whole seconds:
// retrying sooner than one service time cannot help.
func (s *Server) retryAfterSeconds() int {
	d := s.costs.Expect(overload.StageRequest)
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// metricName flattens a component name ("synthrag/embed") into a metric
// suffix ("synthrag_embed") — the registry has no labels.
func metricName(comp string) string {
	return strings.NewReplacer("/", "_", "-", "_", ".", "_").Replace(comp)
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

	// Brownout: under sustained shedding the server serves a weaker answer
	// rather than more errors — Pass@k clamps to one sample. Clamping
	// before the singleflight key is computed lets browned-out requests
	// coalesce with each other.
	brownedOut := false
	if req.K > 1 && s.brownout.Active() {
		req.K = 1
		brownedOut = true
	}

	// Identical concurrent requests share one execution (and one worker
	// slot); the key is every input that shapes the result.
	key := fmt.Sprintf("%s\x00%s\x00%s\x00%d", req.Design, req.Requirement, req.Pipeline, req.K)
	v, _, err := s.flight.Do(key, func() (any, error) { return s.admit(d, req) })
	shed := err != nil && (errors.Is(err, errOverloaded) || errors.Is(err, errShed))
	s.brownout.Note(shed)
	if err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			s.rejected.Inc()
			s.writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
		case errors.Is(err, errShed):
			s.rejected.Inc()
			s.writeError(w, http.StatusServiceUnavailable,
				"server overloaded: expected request cost exceeds the deadline, retry later")
		case errors.Is(err, overload.ErrBudget):
			// The request was rejected inside the pipeline before any
			// synthesis started; no partial work was done.
			s.rejected.Inc()
			s.writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, resilience.ErrTimeout):
			s.writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		default:
			s.writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	resp := v.(*customizeResponse)
	if brownedOut {
		// Copy before annotating: the singleflight value is shared with
		// coalesced followers and must stay immutable.
		cp := *resp
		cp.Degraded = append(append([]string(nil), resp.Degraded...), "brownout")
		resp = &cp
	}
	writeJSON(w, http.StatusOK, resp)
}

// admit is the whole admission path of one deduplicated customization, run
// on the singleflight leader's handler goroutine. Every step it takes is
// undone by a defer, so a panic below it (net/http recovers those per
// connection) leaves no place or worker held.
func (s *Server) admit(d *designs.Design, req customizeRequest) (*customizeResponse, error) {
	// Cost-based shed: when the learned end-to-end cost cannot fit the
	// per-request deadline, admitting the work could only produce a 504
	// after burning a worker — reject now. Every 8th would-be shed is
	// deterministically admitted anyway so the cost model keeps
	// re-learning and a recovered backend un-sheds itself.
	if s.costs.Expect(overload.StageRequest) > s.cfg.RequestTimeout && s.shedProbe.Add(1)%8 != 0 {
		s.sheds.Add(1)
		return nil, errShed
	}
	// A place to run or wait, taken without blocking: a request that finds
	// all Workers+QueueDepth of them held is refused rather than queued.
	select {
	case s.places <- struct{}{}:
	default:
		s.sheds.Add(1)
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
// cancels.
func (s *Server) runCustomize(d *designs.Design, req customizeRequest) (resp *customizeResponse, err error) {
	if h := s.cfg.BeforeWork; h != nil {
		h()
	}
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		s.latency.ObserveDuration(elapsed)
		// Successes and deadline overruns both teach the end-to-end cost
		// model (a timeout is exactly the cost signal shedding needs);
		// other failures say nothing about cost.
		if err == nil || errors.Is(err, resilience.ErrTimeout) {
			s.costs.Observe(overload.StageRequest, elapsed)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()

	task, baseQoR, err := s.baselineTask(ctx, d)
	if err != nil {
		s.countErr(err)
		return nil, err
	}
	// Shallow copy: the cached task must keep its pristine requirement.
	t := *task
	t.Requirement = req.Requirement

	res, err := chatls.EvalTaskOpts(ctx, s.newPipeline(req.Pipeline), &t, baseQoR, req.K, s.cfg.Lib,
		chatls.EvalOptions{Workers: 1, Checkpoints: s.ckpt, Results: s.resultStore(), Costs: s.costs})
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

// baselineTask returns the cached baseline synthesis for a design, running
// it on a miss. The cache key includes the clock period because the
// baseline QoR is period-dependent.
func (s *Server) baselineTask(ctx context.Context, d *designs.Design) (*chatls.Task, synth.QoR, error) {
	key := fmt.Sprintf("%s@%.6g", d.Name, d.Period)
	if e, ok := s.tasks.Get(key); ok {
		return e.task, e.qor, nil
	}
	task, qor, err := chatls.NewTaskWith(ctx, d, s.cfg.Lib, s.ckpt)
	if err != nil {
		return nil, synth.QoR{}, err
	}
	s.tasks.Add(key, taskEntry{task: task, qor: qor})
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
		// Breakers and the cost model are shared across every request, so
		// stage health and learned costs persist beyond one pipeline
		// instance; the injector is the chaos/test fault layer.
		p.Breakers = s.breakers
		p.Costs = s.costs
		p.Inject = s.cfg.PipelineInject
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

// budgetJSON mirrors inputlimits.Budget in the health report.
type budgetJSON struct {
	MaxBytes      int `json:"max_bytes,omitempty"`
	MaxTokens     int `json:"max_tokens,omitempty"`
	MaxDepth      int `json:"max_depth,omitempty"`
	MaxStatements int `json:"max_statements,omitempty"`
	MaxSteps      int `json:"max_steps,omitempty"`
}

func toBudgetJSON(b inputlimits.Budget) budgetJSON {
	return budgetJSON{
		MaxBytes:      b.MaxBytes,
		MaxTokens:     b.MaxTokens,
		MaxDepth:      b.MaxDepth,
		MaxStatements: b.MaxStatements,
		MaxSteps:      b.MaxSteps,
	}
}

// overloadJSON is the overload-protection state in the health report: the
// admission bound and the places held, shed counts, brownout, and every circuit
// breaker's position — what an operator (or the chaos harness) checks to
// see whether the server has recovered after an incident.
type overloadJSON struct {
	Limit         int               `json:"limit"`
	Inflight      int               `json:"inflight"`
	ShedTotal     int64             `json:"shed_total"`
	Brownout      bool              `json:"brownout"`
	Breakers      map[string]string `json:"breakers"`
	RequestCostNS int64             `json:"expected_request_cost_ns,omitempty"`
}

// healthzResponse echoes the effective request and parser limits so an
// operator can confirm what the running daemon actually enforces — the
// values reflect any cmd/chatlsd flag overrides, not just the defaults.
type healthzResponse struct {
	Status            string                `json:"status"`
	MaxBodyBytes      int64                 `json:"max_body_bytes"`
	MaxRequirementLen int                   `json:"max_requirement_len"`
	MaxK              int                   `json:"max_k"`
	BatchEnabled      bool                  `json:"batch_enabled"`
	BatchWindowNS     int64                 `json:"batch_window_ns"`
	BatchMax          int                   `json:"batch_max"`
	ParserBudgets     map[string]budgetJSON `json:"parser_budgets"`
	Overload          overloadJSON          `json:"overload"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	breakers := make(map[string]string, len(s.breakers)+1)
	for comp, br := range s.breakers {
		breakers[comp] = br.State().String()
	}
	if rc := s.cfg.RemoteCache; rc != nil {
		breakers[resilience.CompRemoteCache] = rc.BreakerState().String()
	}
	limits := inputlimits.Defaults()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:            "ok",
		MaxBodyBytes:      s.cfg.MaxBodyBytes,
		MaxRequirementLen: s.cfg.MaxRequirementLen,
		MaxK:              s.cfg.MaxK,
		BatchEnabled:      !s.cfg.DisableBatching,
		BatchWindowNS:     s.cfg.BatchWindow.Nanoseconds(),
		BatchMax:          s.cfg.BatchMax,
		ParserBudgets: map[string]budgetJSON{
			inputlimits.SurfaceVerilog: toBudgetJSON(limits.Verilog),
			inputlimits.SurfaceLiberty: toBudgetJSON(limits.Liberty),
			inputlimits.SurfaceScript:  toBudgetJSON(limits.Script),
			inputlimits.SurfaceCypher:  toBudgetJSON(limits.Cypher),
		},
		Overload: overloadJSON{
			Limit:         cap(s.places),
			Inflight:      len(s.places),
			ShedTotal:     s.sheds.Load(),
			Brownout:      s.brownout.Active(),
			Breakers:      breakers,
			RequestCostNS: s.costs.Expect(overload.StageRequest).Nanoseconds(),
		},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}
