package server

import (
	"errors"
	"sync"
)

// errFlightAborted is what followers get when their leader panicked out of
// fn instead of returning.
var errFlightAborted = errors.New("the identical in-flight request this one was waiting on aborted")

// flightCall is one in-flight unit of work shared by every request that
// arrived with the same key while it ran.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// flightGroup deduplicates concurrent identical requests: the first caller
// for a key runs fn, later callers with the same key wait for and share its
// result. Completed keys are forgotten immediately, so a key that arrives
// after the work finished runs fresh (no caching here — that is the LRU's
// job).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
	// onJoin, when set, fires once per follower at join time (before the
	// leader completes) — the server counts deduplicated requests with it,
	// which also lets tests observe a join while the leader is still blocked.
	onJoin func()
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// Do runs fn for key, unless an identical call is already in flight, in
// which case it waits for that call and returns its result. shared reports
// whether this caller was a follower. The call is completed by a defer: a
// panic in fn passes through to the leader's caller, and its followers are
// released with errFlightAborted rather than left waiting.
func (g *flightGroup) Do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		if g.onJoin != nil {
			g.onJoin()
		}
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{}), err: errFlightAborted}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
