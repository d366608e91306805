package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/synth"
)

// answer is the part of a /v1/customize reply the harness checks and counts.
type answer struct {
	Best       synth.QoR `json:"best"`
	BestSample int       `json:"best_sample"`
	Valid      int       `json:"valid"`
	Improved   bool      `json:"improved"`
	Samples    []struct {
		QoR      *synth.QoR `json:"qor"`
		Degraded []string   `json:"degraded"`
	} `json:"samples"`
	Degraded []string `json:"degraded"`
}

// degraded reports any request- or sample-level degradation entry: a
// brownout clamp, or a pipeline stage that was skipped or failed over.
func (a answer) degraded() bool {
	if len(a.Degraded) > 0 {
		return true
	}
	for _, s := range a.Samples {
		if len(s.Degraded) > 0 {
			return true
		}
	}
	return false
}

// sample is one request as the load generator saw it. Times are offsets from
// the start of the measured window.
type sample struct {
	key      string
	design   string
	start    time.Duration // closed loop: when it was sent; open loop: when it was due
	end      time.Duration // last body byte read
	bytes    int
	ok       bool // 200 with the right answer
	wrong    bool // 200 with another answer than an identical request or the oracle got
	improved bool
	degraded bool
}

func (s sample) latencyMS() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// checker decides whether replies are right. A 200 is wrong when its body
// differs from the first body seen for an identical request (cold path vs
// warm path, cached vs computed), or — decided after the run by verify —
// when it differs from the storeless oracle's answer for that request.
type checker struct {
	mu   sync.Mutex
	seen map[string]*seenReply
}

type seenReply struct {
	req   request
	body  []byte
	ans   answer
	valid bool // body parsed
}

func newChecker() *checker { return &checker{seen: map[string]*seenReply{}} }

// observe classifies one reply and fills the sample's outcome fields.
func (c *checker) observe(s *sample, req request, status int, body []byte, err error) {
	s.key, s.design = req.key(), req.Design
	s.bytes = len(body)
	if err != nil || status != http.StatusOK {
		return
	}
	c.mu.Lock()
	first, ok := c.seen[s.key]
	if !ok {
		first = &seenReply{req: req, body: body}
		first.valid = json.Unmarshal(body, &first.ans) == nil
		c.seen[s.key] = first
	}
	c.mu.Unlock()
	if !first.valid {
		s.wrong = true
		return
	}
	if !bytes.Equal(body, first.body) {
		s.wrong = true
		// Still read the flags: a brownout reply is both wrong and degraded.
		var a answer
		if json.Unmarshal(body, &a) == nil {
			s.degraded = a.degraded()
		}
		return
	}
	s.ok, s.improved, s.degraded = true, first.ans.Improved, first.ans.degraded()
}

// verify compares the first reply of every distinct request with the
// oracle's answer and returns the keys the daemon got wrong. Requests the
// oracle did not evaluate are left to the body-equality check alone.
func (c *checker) verify(want map[string]oracleAnswer) map[string]bool {
	wrong := map[string]bool{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, got := range c.seen {
		if w, ok := want[key]; ok && !w.matches(got.ans) {
			wrong[key] = true
		}
	}
	return wrong
}

// distinct lists the distinct requests seen so far, in no particular order.
func (c *checker) distinct() []request {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]request, 0, len(c.seen))
	for _, s := range c.seen {
		out = append(out, s.req)
	}
	return out
}

// markWrong flips samples whose request the oracle disagreed with.
func markWrong(samples []sample, wrong map[string]bool) {
	for i := range samples {
		if wrong[samples[i].key] && samples[i].ok {
			samples[i].ok, samples[i].wrong = false, true
		}
	}
}

// newClient returns an HTTP client that holds at most conns connections to
// the daemon, so the harness never offers more concurrency than it states.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   90 * time.Second,
	}
}

func post(client *http.Client, url string, req request) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(req.body()))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// closedRun is the record of one closed-loop pass: whole cycles only.
type closedRun struct {
	t0      time.Time // start of the run: sample and cycle times are offsets from it
	samples []sample
	// cycleEnd[c] and cycleCPU[c] are the window offset and the daemon's
	// cumulative CPU time at the moment the last request of cycle c completed.
	cycleEnd []time.Duration
	cycleCPU []time.Duration
	startCPU time.Duration
}

// runClosed drives clients concurrent clients, each sending its next request
// as soon as its previous one completes, through cycle over and over. It
// stops handing out requests at the first cycle boundary after window has
// elapsed, so it always runs whole cycles and at least one (window 0 =
// exactly one cycle, which is how warm-up runs). cpu reads the daemon's CPU
// clock.
func runClosed(client *http.Client, url string, cycle []request, clients int,
	window time.Duration, chk *checker, cpu func() time.Duration) closedRun {
	cycleLen := len(cycle)
	run := closedRun{t0: time.Now(), startCPU: cpu()}
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		done    = map[int]int{} // cycle -> completed requests
	)
	t0 := run.t0
	take := func() (int, request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next > 0 && next%cycleLen == 0 && time.Since(t0) >= window {
			stopped = true
		}
		if stopped {
			return 0, request{}, false
		}
		i := next
		next++
		run.samples = append(run.samples, sample{})
		return i, cycle[i%cycleLen], true
	}
	finish := func(i int, s sample) {
		mu.Lock()
		defer mu.Unlock()
		run.samples[i] = s
		c := i / cycleLen
		done[c]++
		if done[c] == cycleLen {
			for len(run.cycleEnd) <= c {
				run.cycleEnd = append(run.cycleEnd, 0)
				run.cycleCPU = append(run.cycleCPU, 0)
			}
			run.cycleEnd[c], run.cycleCPU[c] = s.end, cpu()
		}
	}
	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, req, ok := take()
				if !ok {
					return
				}
				s := sample{start: time.Since(t0)}
				status, body, err := post(client, url, req)
				s.end = time.Since(t0)
				chk.observe(&s, req, status, body, err)
				finish(i, s)
			}
		}()
	}
	wg.Wait()
	return run
}

// openRun is the record of one open-loop pass.
type openRun struct {
	t0       time.Time // start of the run: due times and sample times are offsets from it
	samples  []sample
	lateMS   []float64 // per arrival: how long after its due time the generator fired it
	blocked  int       // arrivals that found every connection busy
	arrivals int
}

// runOpen fires each arrival at its due time whatever the daemon does, over
// at most conns connections: an arrival that finds them all busy queues, and
// its latency still counts from the instant it was due, so a stall charges
// every request it delayed. A dup arrival is two identical requests with the
// same due time.
func runOpen(client *http.Client, url string, arrivals []arrival, conns int, chk *checker) openRun {
	type job struct {
		idx int
		due time.Duration
		req request
	}
	total := len(arrivals)
	for _, a := range arrivals {
		if a.dup {
			total++
		}
	}
	run := openRun{t0: time.Now(), samples: make([]sample, total), arrivals: len(arrivals)}
	jobs := make(chan job, total) // one slot per send: the dispatcher never waits on the daemon
	var outstanding atomic.Int64
	t0 := run.t0

	var wg sync.WaitGroup
	for n := 0; n < conns; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s := sample{start: j.due}
				status, body, err := post(client, url, j.req)
				s.end = time.Since(t0)
				outstanding.Add(-1)
				chk.observe(&s, j.req, status, body, err)
				run.samples[j.idx] = s // distinct index per job; wg.Wait orders the reads
			}
		}()
	}
	idx := 0
	for _, a := range arrivals {
		if wait := a.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		run.lateMS = append(run.lateMS, float64(time.Since(t0)-a.due)/float64(time.Millisecond))
		if outstanding.Load() >= int64(conns) {
			run.blocked++
		}
		copies := 1
		if a.dup {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			outstanding.Add(1)
			jobs <- job{idx: idx, due: a.due, req: a.req}
			idx++
		}
	}
	close(jobs)
	wg.Wait()
	return run
}

// runSerial sends reqs one at a time over one connection.
func runSerial(client *http.Client, url string, reqs []request, chk *checker) []sample {
	out := make([]sample, len(reqs))
	t0 := time.Now()
	for i, req := range reqs {
		s := sample{start: time.Since(t0)}
		status, body, err := post(client, url, req)
		s.end = time.Since(t0)
		chk.observe(&s, req, status, body, err)
		out[i] = s
	}
	return out
}

// tally summarises samples: counts, and the latencies of the successes.
type tally struct {
	sent, ok, wrong, improved, degraded int
	bytes                               int
	latMS                               []float64
	latByDesign                         map[string][]float64
}

func tallyOf(samples []sample) tally {
	t := tally{sent: len(samples), latByDesign: map[string][]float64{}}
	for _, s := range samples {
		if s.degraded {
			t.degraded++
		}
		if s.wrong {
			t.wrong++
		}
		if !s.ok {
			continue
		}
		t.ok++
		t.bytes += s.bytes
		if s.improved {
			t.improved++
		}
		t.latMS = append(t.latMS, s.latencyMS())
		t.latByDesign[s.design] = append(t.latByDesign[s.design], s.latencyMS())
	}
	return t
}
