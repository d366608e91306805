// Command chatlscached serves the shared result tier for a fleet of chatlsd
// replicas (and cmd/experiments runs): content-addressed QoR records. A
// replica looks a sample's record up before it synthesizes and publishes it
// after, so a sample any replica has computed is served to all the others.
// Each replica keeps its own elaboration checkpoints.
//
//	chatlscached -addr :8090 -qor-log /var/lib/chatls/qor.log
//	chatlsd -addr :8080 -remote-cache http://localhost:8090
//
// The tier is an accelerator, never a correctness dependency: replicas that
// lose it degrade to local-only operation and produce bit-identical results,
// just slower. QoR records ride the same durable log format as a replica's
// local -qor-log, so the tier survives its own restarts the same way.
//
// SIGINT/SIGTERM drains in-flight requests, then flushes and closes the QoR
// log.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/qorlog"
	"repro/internal/remotecache"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	qorLog := flag.String("qor-log", "", "durable QoR log path: records survive a tier restart (empty = memory-only)")
	qorCache := flag.Int("qor-cache", 0, "in-memory QoR record cache entries in front of the log (0 = default)")
	flag.Parse()

	var store *qorlog.Store
	if *qorLog != "" {
		var err error
		store, err = qorlog.OpenStore(*qorLog, *qorCache, qorlog.Options{})
		if err != nil {
			// Same degradation rule as chatlsd: an unopenable log is a
			// memory-only start, not a failed one.
			log.Printf("chatlscached: cannot open QoR log %s, running memory-only (records will not survive a restart): %v",
				*qorLog, err)
			store = qorlog.NewMemoryStore(*qorCache)
		} else {
			st := store.Stats()
			log.Printf("qor log %s: recovered %d record(s), dropped %d torn/corrupt byte(s)",
				*qorLog, st.Recovered, st.DroppedBytes)
		}
	} else {
		store = qorlog.NewMemoryStore(*qorCache)
	}

	srv := remotecache.NewServer(remotecache.ServerConfig{QoR: store})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		log.Println("shutting down: draining in-flight requests...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		if err := store.Close(); err != nil {
			log.Printf("shutdown: closing QoR log: %v", err)
		}
	}()

	log.Printf("chatlscached listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	<-done
	log.Println("chatlscached stopped")
}
