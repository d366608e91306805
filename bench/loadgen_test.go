package main

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/synth"
)

// cannedAnswer is what the fake daemon and the fake oracle agree a request's
// answer is: a QoR derived from the request's key.
func cannedAnswer(req request) oracleAnswer {
	h := fnv.New32a()
	h.Write([]byte(req.key()))
	q := synth.QoR{Design: req.Design, Period: 2.5, WNS: -float64(h.Sum32()%1000) / 1000, Area: 1234.5, Cells: 100}
	a := oracleAnswer{best: q, bestSample: 0, valid: req.K, improved: true}
	for i := 0; i < req.K; i++ {
		q := q
		a.samples = append(a.samples, &q)
	}
	return a
}

func cannedBody(req request) []byte {
	a := cannedAnswer(req)
	type sampleJSON struct {
		QoR *synth.QoR `json:"qor"`
	}
	samples := make([]sampleJSON, len(a.samples))
	for i, q := range a.samples {
		samples[i] = sampleJSON{q}
	}
	b, _ := json.Marshal(map[string]any{
		"design": req.Design, "pipeline": req.Pipeline, "k": req.K, "best": a.best,
		"best_sample": a.bestSample, "valid": a.valid, "improved": a.improved, "samples": samples,
	})
	return b
}

// fakeDaemon answers /v1/customize with the canned body; tamper may replace
// the body of the n-th reply (counting from 1) and delay it.
func fakeDaemon(t *testing.T, tamper func(n int64, req request, body []byte) ([]byte, time.Duration)) *httptest.Server {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req request
		raw, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(raw, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body := cannedBody(req)
		if tamper != nil {
			var stall time.Duration
			body, stall = tamper(n.Add(1), req, body)
			time.Sleep(stall)
		}
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func testRequests(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = request{Design: "d" + string(rune('a'+i)), Pipeline: "chatls", K: 1 + i%2, Requirement: "close timing"}
	}
	return out
}

func TestClosedLoopRunsWholeCyclesOnly(t *testing.T) {
	srv := fakeDaemon(t, nil)
	reqs := testRequests(6)
	var cpuReads atomic.Int64
	cpu := func() time.Duration { return time.Duration(cpuReads.Add(1)) * time.Millisecond }
	client := newClient(2)

	warm := runClosed(client, srv.URL, reqs, 2, 0, newChecker(), cpu)
	if len(warm.samples) != len(reqs) || len(warm.cycleEnd) != 1 {
		t.Fatalf("window 0 ran %d requests in %d cycles, want exactly one cycle of %d", len(warm.samples), len(warm.cycleEnd), len(reqs))
	}
	run := runClosed(client, srv.URL, reqs, 2, 30*time.Millisecond, newChecker(), cpu)
	if len(run.samples)%len(reqs) != 0 || len(run.samples) < 2*len(reqs) {
		t.Fatalf("ran %d requests: not a whole number of cycles, or too few for a 30 ms window", len(run.samples))
	}
	if len(run.cycleEnd) != len(run.samples)/len(reqs) || len(run.cycleCPU) != len(run.cycleEnd) {
		t.Fatalf("%d cycle ends and %d cpu readings for %d cycles", len(run.cycleEnd), len(run.cycleCPU), len(run.samples)/len(reqs))
	}
	// It stops at the first cycle boundary after the window: the last cycle
	// began inside the window and ended outside it.
	window := 30 * time.Millisecond
	lastCycle := run.samples[len(run.samples)-len(reqs):]
	began := lastCycle[0].start
	for _, s := range lastCycle {
		began = min(began, s.start)
	}
	if began >= window || run.cycleEnd[len(run.cycleEnd)-1] < window {
		t.Errorf("last cycle ran %v..%v: want it to begin inside the %v window and end after it", began, run.cycleEnd[len(run.cycleEnd)-1], window)
	}
	for i, s := range run.samples {
		if !s.ok || s.end < s.start {
			t.Fatalf("sample %d: %+v", i, s)
		}
	}
}

// A stalled daemon must show in the latency of every request it delayed,
// which is timed from its due instant, and must not show in how late the
// generator fired: that only says whether the harness kept its schedule.
func TestOpenLoopChargesStallToLatencyNotToGenerator(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := fakeDaemon(t, func(n int64, _ request, body []byte) ([]byte, time.Duration) {
		if n == 1 {
			return body, stall
		}
		return body, 0
	})
	reqs := testRequests(5)
	var arrivals []arrival
	for i, r := range reqs {
		arrivals = append(arrivals, arrival{due: time.Duration(i) * 20 * time.Millisecond, req: r})
	}
	run := runOpen(newClient(1), srv.URL, arrivals, 1, newChecker())
	if len(run.samples) != len(arrivals) || run.arrivals != len(arrivals) {
		t.Fatalf("%d samples for %d arrivals", len(run.samples), len(arrivals))
	}
	for i, s := range run.samples {
		if !s.ok {
			t.Fatalf("sample %d failed", i)
		}
		if min := stall - arrivals[i].due; time.Duration(s.latencyMS()*float64(time.Millisecond)) < min {
			t.Errorf("arrival %d latency %.1f ms: must include the stall it queued behind (>= %v)", i, s.latencyMS(), min)
		}
		if s.start != arrivals[i].due {
			t.Errorf("arrival %d timed from %v, want its due time %v", i, s.start, arrivals[i].due)
		}
	}
	if late := percentile(run.lateMS, 99); late > 100 {
		t.Errorf("generator lateness p99 %.1f ms includes the daemon's stall", late)
	}
	if run.blocked != len(arrivals)-1 {
		t.Errorf("%d arrivals found the connection busy, want %d", run.blocked, len(arrivals)-1)
	}
}

func TestOpenLoopSendsDuplicatesTogether(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inflight++
		peak = max(peak, inflight)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		w.Write(cannedBody(testRequests(1)[0]))
	}))
	defer srv.Close()
	run := runOpen(newClient(2), srv.URL, []arrival{{req: testRequests(1)[0], dup: true}}, 2, newChecker())
	if len(run.samples) != 2 || peak != 2 {
		t.Errorf("%d samples, peak concurrency %d: a dup arrival is two simultaneous requests", len(run.samples), peak)
	}
}

// flipDigit changes one digit of the best WNS in a reply body.
func flipDigit(t *testing.T, body []byte) []byte {
	s := string(body)
	i := strings.Index(s, `"WNS":-0.`)
	if i < 0 {
		t.Fatalf("no WNS in %s", s)
	}
	i += len(`"WNS":-0.`)
	d := s[i]
	flipped := byte('0' + (d-'0'+1)%10)
	return []byte(s[:i] + string(flipped) + s[i+1:])
}

// The correctness check must be live before anyone relies on it: a daemon
// that flips one QoR digit on every 10th reply fails a tenth of the run.
func TestWrongAnswersAreCaughtAndFailTheRun(t *testing.T) {
	reqs := testRequests(20)
	warmup := int64(len(reqs))
	srv := fakeDaemon(t, func(n int64, _ request, body []byte) ([]byte, time.Duration) {
		if n > warmup && n%10 == 0 {
			return flipDigit(t, body), 0
		}
		return body, 0
	})
	chk := newChecker()
	client := newClient(1)
	runSerial(client, srv.URL, reqs, chk) // warm-up: the first reply of every request is right
	var measured []request
	for i := 0; i < 10; i++ {
		measured = append(measured, reqs...)
	}
	p := &pass{samples: runSerial(client, srv.URL, measured, chk), slow: speed{cpu: 1, wall: 1}}

	want := map[string]oracleAnswer{}
	for _, r := range reqs {
		want[r.key()] = cannedAnswer(r)
	}
	markWrong(p.samples, chk.verify(want))
	m := loadgenMetrics(workloads[0], p)
	if got := m["fail_ratio"]; !near(got, 0.1) {
		t.Errorf("fail_ratio = %v, want 0.1", got)
	}
	res, err := resultOf(endToEndDefs, endToEnd(workloads[0], p), workloads[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != len(measured)/10 || res.Attempted != len(measured) {
		t.Errorf("result %+v: want incorrect with %d of %d failed", res, len(measured)/10, len(measured))
	}
	if exitStatus([]*result{res}) == 0 {
		t.Error("a run with wrong answers must exit non-zero")
	}
}

// A daemon that is wrong the same way every time agrees with itself; only
// the oracle can tell.
func TestConsistentlyWrongAnswerNeedsTheOracle(t *testing.T) {
	reqs := testRequests(4)
	bad := reqs[2].key()
	srv := fakeDaemon(t, func(_ int64, req request, body []byte) ([]byte, time.Duration) {
		if req.key() == bad {
			return flipDigit(t, body), 0
		}
		return body, 0
	})
	chk := newChecker()
	samples := runSerial(newClient(1), srv.URL, append(reqs, reqs...), chk)
	if t0 := tallyOf(samples); t0.ok != t0.sent {
		t.Fatalf("body equality alone flagged %d replies", t0.sent-t0.ok)
	}
	want := map[string]oracleAnswer{}
	for _, r := range reqs {
		want[r.key()] = cannedAnswer(r)
	}
	markWrong(samples, chk.verify(want))
	if t1 := tallyOf(samples); t1.wrong != 2 || t1.ok != t1.sent-2 {
		t.Errorf("oracle flagged %d wrong, %d ok of %d; want 2 wrong", t1.wrong, t1.ok, t1.sent)
	}
}
