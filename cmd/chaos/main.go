// Command chaos is the seeded chaos-soak harness for the serving fleet: it
// stands up a real chatlsd server (SkipSynth fixture database, so a full
// soak fits in CI) together with a remote result tier, then drives load
// while injecting the fault classes the fleet claims to survive:
//
//   - burst load far beyond the admission bound,
//   - remote-cache tier death and restart on the same address,
//   - sticky pipeline-stage outages (fail and panic modes) on CircuitMentor
//     and SynthExpert,
//   - disk write faults against the durable QoR log.
//
// Throughout, it checks the invariants overload protection promises:
//
//  1. no deadlocks — a wall-clock watchdog bounds the whole soak,
//  2. every response is in {200, 429, 503, 504}, and every retryable
//     status carries Retry-After plus a {"error","retryable":true} body,
//  3. non-degraded 200 bodies are byte-identical to a fault-free reference,
//     and no 200 is degraded unless a stage fault is active: nothing but a
//     stage fault degrades a reply,
//  4. the remote-cache client re-attaches after the tier restarts,
//  5. while a stage is faulted, every 200 names that stage, and only it, as
//     degraded in each sample; once the fault is cleared, the next reply is
//     non-degraded and byte-identical to its reference,
//  6. the server's shed_total equals the 429s the harness received.
//
// Every random choice derives from -seed, which is echoed on failure so a
// red run reproduces exactly.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/qorlog"
	"repro/internal/remotecache"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/synthrag"
)

var seed = flag.Int64("seed", 20250808, "chaos seed: every fault schedule and load pattern derives from it")

// fail aborts the soak, echoing the seed so the failure reproduces.
func fail(format string, args ...any) {
	log.Printf("chaos: FAIL (seed=%d): %s", *seed, fmt.Sprintf(format, args...))
	os.Exit(1)
}

// harness owns the system under soak and the invariant bookkeeping.
type harness struct {
	rng    *rand.Rand
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	inj    *resilience.Injector

	tier     *remotecache.Server
	tierAddr string
	tierHTTP *http.Server
	tierMu   sync.Mutex

	bodies []string // request-body pool (valid /v1/customize payloads)
	names  []string // servable design names behind the body pool
	uniq   int64    // monotonic counter for cache-missing probe requests

	// stageFault is set while phase 3 holds a sticky stage fault, the only
	// time a degraded 200 is allowed.
	stageFault atomic.Bool

	mu         sync.Mutex
	refs       map[string][]byte // fault-free reference bodies
	statuses   map[int]int
	compared   int64
	degraded   int64
	protocol   int64 // retryable-protocol checks performed
	identityOK bool
}

// response mirrors the parts of the customize reply the invariants read.
type response struct {
	Samples []struct {
		Error    string   `json:"error"`
		Degraded []string `json:"degraded"`
	} `json:"samples"`
}

type errorBody struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable"`
}

// isDegraded reports whether any part of a 200 reply ran at reduced
// strength (a degraded stage, a failed sample) — such replies are
// legitimately different from the fault-free reference.
func isDegraded(body []byte) bool {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return true // unparseable counts as degraded, never as reference
	}
	for _, s := range r.Samples {
		if s.Error != "" || len(s.Degraded) > 0 {
			return true
		}
	}
	return false
}

// do issues one request and checks the per-response invariants: allowed
// status set, retryable protocol on 429/503/504, no degraded 200 without a
// stage fault, and byte-identity of non-degraded 200s against the fault-free
// reference. It returns the status and the body.
func (h *harness) do(body string) (int, []byte) {
	resp, err := h.client.Post(h.ts.URL+"/v1/customize", "application/json", strings.NewReader(body))
	if err != nil {
		fail("request error (client timeout is the deadlock tripwire): %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fail("read response body: %v", err)
	}

	h.mu.Lock()
	h.statuses[resp.StatusCode]++
	h.mu.Unlock()

	switch resp.StatusCode {
	case http.StatusOK:
		if isDegraded(b) {
			if !h.stageFault.Load() {
				fail("degraded 200 for %s with no stage fault active: %s", body, b)
			}
			atomic.AddInt64(&h.degraded, 1)
			break
		}
		h.mu.Lock()
		ref, ok := h.refs[body]
		if ok && !bytes.Equal(ref, b) {
			h.identityOK = false
			h.mu.Unlock()
			fail("non-degraded 200 for %s diverged from the fault-free reference:\nref: %s\ngot: %s", body, ref, b)
		}
		h.compared++
		h.mu.Unlock()
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		if resp.Header.Get("Retry-After") == "" {
			fail("status %d without a Retry-After header", resp.StatusCode)
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || !eb.Retryable || eb.Error == "" {
			fail("status %d body %q is not a retryable error body", resp.StatusCode, b)
		}
		atomic.AddInt64(&h.protocol, 1)
	default:
		fail("unexpected status %d for %s: %s", resp.StatusCode, body, b)
	}
	return resp.StatusCode, b
}

// healthz decodes the daemon's overload state.
type overloadState struct {
	Limit    int               `json:"limit"`
	Shed     int64             `json:"shed_total"`
	Breakers map[string]string `json:"breakers"`
}

func (h *harness) overload() overloadState {
	resp, err := h.client.Get(h.ts.URL + "/healthz")
	if err != nil {
		fail("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var hz struct {
		Overload overloadState `json:"overload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		fail("decode /healthz: %v", err)
	}
	return hz.Overload
}

// uniqueBody returns a request no prior request matches: it misses every
// cache, so the full pipeline runs and the remote tier is actually
// consulted (a warm body is served locally and never probes the tier).
func (h *harness) uniqueBody() string {
	n := atomic.AddInt64(&h.uniq, 1)
	return fmt.Sprintf(`{"design":%q,"k":1,"requirement":"soak probe variant %d"}`,
		h.names[int(n)%len(h.names)], n)
}

// waitUnderLoad drives light traffic until cond holds or the deadline
// passes — recovery conditions (the tier breaker's probe) only make
// progress while requests flow. Traffic alternates warm bodies with unique
// cache-missing ones so both the admission path and the remote tier see
// probes.
func (h *harness) waitUnderLoad(d time.Duration, what string, cond func() bool) {
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			h.do(h.bodies[h.rng.Intn(len(h.bodies))])
		} else {
			h.do(h.uniqueBody())
		}
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	fail("%s did not hold within %v", what, d)
}

// startTier (re)binds the remote tier's HTTP server on its address.
func (h *harness) startTier() {
	h.tierMu.Lock()
	defer h.tierMu.Unlock()
	addr := h.tierAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail("bind tier on %q: %v", addr, err)
	}
	h.tierAddr = ln.Addr().String()
	h.tierHTTP = &http.Server{Handler: h.tier.Handler()}
	go h.tierHTTP.Serve(ln)
}

func (h *harness) stopTier() {
	h.tierMu.Lock()
	defer h.tierMu.Unlock()
	h.tierHTTP.Close()
}

func main() {
	flag.Parse()
	log.SetFlags(0)
	start := time.Now()

	// Invariant 1: the watchdog is the deadlock tripwire. Nothing in the
	// soak may block past it.
	const wallClock = 120 * time.Second
	watchdog := time.AfterFunc(wallClock, func() {
		fail("watchdog: soak exceeded %v — possible deadlock", wallClock)
	})
	defer watchdog.Stop()

	h := &harness{
		rng:        rand.New(rand.NewSource(*seed)),
		client:     &http.Client{Timeout: 30 * time.Second},
		refs:       make(map[string][]byte),
		statuses:   make(map[int]int),
		identityOK: true,
		inj:        resilience.NewInjector(),
	}

	// --- assemble the system under soak -------------------------------
	lib := liberty.Nangate45()
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: *seed, SkipSynth: true, Lib: lib})
	if err != nil {
		fail("build database: %v", err)
	}

	h.tier = remotecache.NewServer(remotecache.ServerConfig{QoR: qorlog.NewMemoryStore(0)})
	h.startTier()
	rc := remotecache.NewClient(remotecache.ClientConfig{
		BaseURL: "http://" + h.tierAddr,
		Timeout: 500 * time.Millisecond,
		Breaker: resilience.BreakerConfig{OpenFor: 200 * time.Millisecond},
	})

	// Disk faults ride along passively: a seeded schedule of failed and
	// torn QoR-log writes spread over the soak. The store must degrade or
	// recover without ever corrupting served results.
	diskCalls := make([]int, 0, 12)
	for _, n := range h.rng.Perm(300)[:12] {
		diskCalls = append(diskCalls, n+10)
	}
	sort.Ints(diskCalls)
	diskInj := resilience.NewDiskInjector(
		resilience.DiskFault{Op: resilience.DiskWrite, Mode: resilience.DiskShort, Calls: diskCalls[:6]},
		resilience.DiskFault{Op: resilience.DiskWrite, Mode: resilience.DiskFail, Calls: diskCalls[6:]},
	)

	qorPath := fmt.Sprintf("%s/chaos-qor.log", os.TempDir())
	os.Remove(qorPath)
	defer os.Remove(qorPath)

	srv, err := server.New(server.Config{
		Model:          llm.New(llm.GPT4o, *seed),
		DB:             db,
		Lib:            lib,
		Seed:           *seed,
		Workers:        4,
		QueueDepth:     8,
		RequestTimeout: 2 * time.Second,
		DefaultK:       1,
		QoRLogPath:     qorPath,
		QoRLogOpts:     qorlog.Options{Inject: diskInj},
		RemoteCache:    rc,
		PipelineInject: h.inj,
	})
	if err != nil {
		fail("server.New: %v", err)
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	defer h.ts.Close()

	names := make([]string, 0, 3)
	for _, d := range designs.Benchmarks() {
		names = append(names, d.Name)
		if len(names) == 3 {
			break
		}
	}
	h.names = names
	for _, n := range names {
		h.bodies = append(h.bodies,
			fmt.Sprintf(`{"design":%q,"k":1}`, n),
			fmt.Sprintf(`{"design":%q,"k":2}`, n))
	}

	// --- phase 0: fault-free warmup builds the byte-identity reference.
	log.Printf("chaos: seed=%d phase=warmup", *seed)
	for _, body := range h.bodies {
		resp, err := h.client.Post(h.ts.URL+"/v1/customize", "application/json", strings.NewReader(body))
		if err != nil {
			fail("warmup request: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("warmup for %s: status %d: %s", body, resp.StatusCode, b)
		}
		if isDegraded(b) {
			fail("warmup response for %s degraded with no faults active: %s", body, b)
		}
		h.refs[body] = b
	}

	// --- phase 1: burst load beyond the admission bound ----------------
	log.Printf("chaos: seed=%d phase=burst", *seed)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			for i := 0; i < 25; i++ {
				if rng.Intn(4) == 0 {
					// Unique requirements defeat singleflight so the burst
					// exerts real admission pressure.
					h.do(fmt.Sprintf(`{"design":%q,"k":1,"requirement":"soak timing variant %d-%d"}`,
						names[rng.Intn(len(names))], w, i))
				} else {
					h.do(h.bodies[rng.Intn(len(h.bodies))])
				}
			}
		}(w)
	}
	wg.Wait()

	// --- phase 2: remote tier dies mid-run, then restarts --------------
	log.Printf("chaos: seed=%d phase=tier-outage", *seed)
	h.stopTier()
	h.waitUnderLoad(10*time.Second, "remotecache breaker open after tier death", func() bool {
		return h.overload().Breakers["remotecache"] == "open"
	})
	h.startTier() // same address: the breaker's half-open probe re-attaches
	h.waitUnderLoad(10*time.Second, "remotecache breaker re-closed after tier restart", func() bool {
		return h.overload().Breakers["remotecache"] == "closed" && !rc.Degraded()
	})

	// --- phase 3: a sticky stage outage degrades that stage and nothing
	// else, and its replies are whole again as soon as it clears ------
	log.Printf("chaos: seed=%d phase=stage-outage", *seed)
	stageModes := []resilience.Mode{resilience.ModeFail, resilience.ModePanic}
	for i, comp := range []string{resilience.CompMentor, resilience.CompExpert} {
		mode := stageModes[(i+h.rng.Intn(2))%2]
		h.stageFault.Store(true)
		h.inj.Set(comp, mode)
		ran := 0
		for j := 0; j < 6; j++ {
			body := h.uniqueBody()
			if j%2 == 0 {
				body = h.bodies[h.rng.Intn(len(h.bodies))]
			}
			code, b := h.do(body)
			if code != http.StatusOK {
				continue
			}
			var r response
			if err := json.Unmarshal(b, &r); err != nil || len(r.Samples) == 0 {
				fail("200 for %s under a %s fault on %s has no samples: %s", body, mode, comp, b)
			}
			for _, smp := range r.Samples {
				if len(smp.Degraded) != 1 || smp.Degraded[0] != comp {
					fail("under a %s fault on %s a sample degraded %v, want exactly [%s]: %s", mode, comp, smp.Degraded, comp, b)
				}
			}
			ran++
		}
		if ran == 0 {
			fail("no request ran the pipeline while %s was faulted", comp)
		}
		h.inj.Set(comp, 0)
		h.stageFault.Store(false)
		body := h.bodies[h.rng.Intn(len(h.bodies))]
		if code, b := h.do(body); code != http.StatusOK || isDegraded(b) || !bytes.Equal(b, h.refs[body]) {
			fail("first reply after clearing the %s fault on %s: status %d, want a non-degraded 200 identical to its reference: %s",
				mode, comp, code, b)
		}
	}

	// --- final invariants ----------------------------------------------
	log.Printf("chaos: seed=%d phase=drain", *seed)
	final := h.overload() // snapshot before shutdown flips healthz to 503

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fail("graceful shutdown overran its deadline: %v", err)
	}
	h.mu.Lock()
	var keys []int
	for k := range h.statuses {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var parts []string
	var total int
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d:%d", k, h.statuses[k]))
		total += h.statuses[k]
	}
	tooMany := h.statuses[http.StatusTooManyRequests]
	h.mu.Unlock()
	if final.Shed != int64(tooMany) {
		fail("server shed_total %d, want the %d 429s the harness received", final.Shed, tooMany)
	}
	log.Printf("chaos: %d requests (%s), %d byte-identity checks, %d degraded replies, %d retryable-protocol checks, %d sheds, admission bound %d",
		total, strings.Join(parts, " "), h.compared, h.degraded, h.protocol, final.Shed, final.Limit)
	log.Printf("chaos: PASS (seed=%d) in %v", *seed, time.Since(start).Round(time.Millisecond))
}
