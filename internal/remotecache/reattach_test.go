package remotecache

import (
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/qorlog"
	"repro/internal/resilience"
)

// TestClientReattachesAfterTierRestart is the fix for the sticky local-only
// latch: a client whose tier died must re-attach automatically once the
// server comes back on the same address, with the single degradation
// warning plus one re-attach notice.
func TestClientReattachesAfterTierRestart(t *testing.T) {
	srv := NewServer(ServerConfig{QoR: qorlog.NewMemoryStore(0)})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	var mu sync.Mutex
	var warnings []string
	c := NewClient(ClientConfig{
		BaseURL: "http://" + addr,
		Timeout: time.Second,
		Warnf: func(format string, args ...any) {
			mu.Lock()
			warnings = append(warnings, format)
			mu.Unlock()
		},
		Breaker: resilience.BreakerConfig{OpenFor: 30 * time.Millisecond},
	})

	key := testKey("reattach")
	rec := testRecord("d", 3)
	c.PutQoR(bg, key, rec)
	if _, ok := c.GetQoR(bg, key); !ok {
		t.Fatal("warm-up exchange failed")
	}

	// Tier dies: the client degrades to local-only with one warning.
	hs.Close()
	if _, ok := c.GetQoR(bg, key); ok {
		t.Fatal("dead tier served a record")
	}
	if !c.Degraded() {
		t.Fatal("client should be degraded after the tier died")
	}
	if c.BreakerState() != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", c.BreakerState())
	}

	// Tier restarts on the same address; server-side state survived.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	hs2 := &http.Server{Handler: srv.Handler()}
	go hs2.Serve(ln2)
	defer hs2.Close()

	// After the open dwell, a probe reaches the recovered tier and the
	// breaker closes: the old record is visible again.
	deadline := time.Now().Add(5 * time.Second)
	reattached := false
	for time.Now().Before(deadline) {
		if got, ok := c.GetQoR(bg, key); ok {
			if got != rec {
				t.Fatalf("reattached record = %+v, want %+v", got, rec)
			}
			reattached = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !reattached {
		t.Fatal("client never re-attached to the restarted tier")
	}
	if c.Degraded() || c.BreakerState() != resilience.BreakerClosed {
		t.Fatalf("degraded=%v state=%v after recovery, want attached/closed",
			c.Degraded(), c.BreakerState())
	}
	// New work flows to the tier again.
	key2 := testKey("post-recovery")
	c.PutQoR(bg, key2, testRecord("d", 4))
	if _, ok := c.GetQoR(bg, key2); !ok {
		t.Fatal("post-recovery put/get failed")
	}

	mu.Lock()
	defer mu.Unlock()
	var degradeWarns, reattachWarns int
	for _, w := range warnings {
		switch {
		case strings.Contains(w, "degrading to local-only"):
			degradeWarns++
		case strings.Contains(w, "re-attaching"):
			reattachWarns++
		}
	}
	if degradeWarns != 1 {
		t.Fatalf("degradation warned %d times, want exactly 1", degradeWarns)
	}
	if reattachWarns != 1 {
		t.Fatalf("re-attach logged %d times, want exactly 1", reattachWarns)
	}
}
