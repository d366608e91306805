// Command chatlsd serves the ChatLS pipeline over HTTP: build the SynthRAG
// database once, then answer script-customization requests concurrently
// with caching, admission control, and metrics.
//
//	chatlsd -addr :8080
//	curl -s localhost:8080/v1/designs
//	curl -s -X POST localhost:8080/v1/customize \
//	    -d '{"design":"riscv32i","k":2}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM triggers a graceful shutdown: new requests are refused
// while in-flight and queued work drains, then the durable QoR log (if
// -qor-log is set) is flushed and closed so completed results survive the
// restart. A restarted daemon warm-fills its result cache from that log.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	chatls "repro"
	"repro/internal/inputlimits"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/remotecache"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 20250706, "generation seed")
	epochs := flag.Int("epochs", 40, "metric-learning epochs for the database build")
	workers := flag.Int("workers", 2, "customizations running at once")
	queue := flag.Int("queue", 8, "admitted requests that may wait for a worker")
	reqTimeout := flag.Duration("req-timeout", 60*time.Second, "per-request deadline")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures that trip a stage circuit breaker (0 = default 5)")
	breakerOpenFor := flag.Duration("breaker-open-for", 0, "circuit-breaker open dwell before half-open probes (0 = default 5s)")
	batchWindow := flag.Duration("batch-window", 0, "embedding admission-queue wait window (0 = default, negative disables batching)")
	batchMax := flag.Int("batch-max", 0, "embedding requests per coalesced batch before an early flush (0 = default)")
	qorLog := flag.String("qor-log", "", "durable QoR log path: synthesis outcomes persist across restarts (empty disables)")
	remoteCache := flag.String("remote-cache", "", "base URL of a shared chatlscached result tier, e.g. http://cache:8090 (empty disables)")
	leaseTTL := flag.Duration("lease-ttl", 0, "fleet-wide work-lease TTL requested from the remote cache (0 = server default)")
	defaultK := flag.Int("k", 1, "default Pass@k samples per request")
	maxK := flag.Int("max-k", 10, "largest k a request may ask for")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	maxBody := flag.Int64("max-body-bytes", 1<<20, "largest accepted /v1/customize request body (413 beyond)")
	maxReqLen := flag.Int("max-requirement-len", 8<<10, "largest accepted requirement string (422 beyond)")
	budgetScale := flag.Float64("parse-budget-scale", 1.0, "multiply every parser input budget by this factor (0 disables all parser limits)")
	verilogBytes := flag.Int("parse-verilog-max-bytes", 0, "override the Verilog parser byte budget (0 = keep default)")
	libertyBytes := flag.Int("parse-liberty-max-bytes", 0, "override the Liberty parser byte budget (0 = keep default)")
	scriptBytes := flag.Int("parse-script-max-bytes", 0, "override the script parser byte budget (0 = keep default)")
	cypherBytes := flag.Int("parse-cypher-max-bytes", 0, "override the Cypher parser byte budget (0 = keep default)")
	flag.Parse()

	// Parser budgets are process-global; install overrides before any
	// request (or the database build below) parses a byte. The effective
	// values are echoed on /healthz.
	limits := inputlimits.Defaults()
	if *budgetScale != 1.0 {
		for _, b := range []*inputlimits.Budget{&limits.Verilog, &limits.Liberty, &limits.Script, &limits.Cypher} {
			b.MaxBytes = int(float64(b.MaxBytes) * *budgetScale)
			b.MaxTokens = int(float64(b.MaxTokens) * *budgetScale)
			b.MaxDepth = int(float64(b.MaxDepth) * *budgetScale)
			b.MaxStatements = int(float64(b.MaxStatements) * *budgetScale)
			b.MaxSteps = int(float64(b.MaxSteps) * *budgetScale)
		}
	}
	if *verilogBytes > 0 {
		limits.Verilog.MaxBytes = *verilogBytes
	}
	if *libertyBytes > 0 {
		limits.Liberty.MaxBytes = *libertyBytes
	}
	if *scriptBytes > 0 {
		limits.Script.MaxBytes = *scriptBytes
	}
	if *cypherBytes > 0 {
		limits.Cypher.MaxBytes = *cypherBytes
	}
	inputlimits.SetDefaults(limits)

	lib := liberty.Nangate45()
	log.Println("building SynthRAG database...")
	db, err := chatls.BuildDatabase(chatls.ExperimentConfig{Seed: *seed, TrainEpochs: *epochs, Lib: lib})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	var rc *remotecache.Client
	if *remoteCache != "" {
		host, _ := os.Hostname()
		rc = remotecache.NewClient(remotecache.ClientConfig{
			BaseURL:  *remoteCache,
			Owner:    fmt.Sprintf("chatlsd-%s-%d", host, os.Getpid()),
			LeaseTTL: *leaseTTL,
		})
		log.Printf("remote result tier: %s (replica falls back to local-only if it dies)", *remoteCache)
	}

	srv, err := server.New(server.Config{
		Model:             llm.New(llm.GPT4o, *seed),
		DB:                db,
		Lib:               lib,
		Seed:              *seed,
		Workers:           *workers,
		QueueDepth:        *queue,
		RequestTimeout:    *reqTimeout,
		BreakerFailures:   *breakerFailures,
		BreakerOpenFor:    *breakerOpenFor,
		BatchWindow:       *batchWindow,
		BatchMax:          *batchMax,
		DisableBatching:   *batchWindow < 0,
		QoRLogPath:        *qorLog,
		RemoteCache:       rc,
		DefaultK:          *defaultK,
		MaxK:              *maxK,
		MaxBodyBytes:      *maxBody,
		MaxRequirementLen: *maxReqLen,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *qorLog != "" {
		st := srv.QoRStats()
		log.Printf("qor log %s: recovered %d record(s), warm-filled %d, dropped %d torn/corrupt byte(s)",
			*qorLog, st.Recovered, st.Warmed, st.DroppedBytes)
	}

	handler := srv.Handler()
	if *pprofOn {
		// Profiling is opt-in: the endpoints expose internals and add
		// overhead, so they never ride along on a default deployment.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Println("pprof profiling enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		log.Println("shutting down: draining in-flight work...")
		ctx, cancel := context.WithTimeout(context.Background(), 2*(*reqTimeout))
		defer cancel()
		httpSrv.Shutdown(ctx)
		// Wait for the customizations still running under the same deadline,
		// then flush and close the QoR log so every completed result
		// survives the restart.
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v (abandoning remaining work)", err)
		}
	}()

	log.Printf("chatlsd listening on %s (%d workers, queue %d)", *addr, *workers, *queue)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	<-done
	log.Println("chatlsd stopped")
}
