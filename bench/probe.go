package main

import (
	"errors"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is a small shared VM, and its speed is
// not constant: for seconds to minutes at a time the same instructions cost
// 30-60 % more CPU time (a neighbour on the sibling hardware threads). A
// regime outlasts a run, so no statistic over the run's own samples removes
// it, and two runs of one commit can differ by more than any regression
// bound. The speed probe measures the regime instead: a fixed piece of work,
// independent of the repository's code, repeated on a thread of its own for
// as long as the harness runs and timed with that thread's CPU clock (which
// does not count time spent waiting for a core). The mean cost of a repeat
// over an interval, over probeNominal, is the machine's slowdown in that
// interval, and every end-to-end timing is divided by the slowdown of the
// interval it was measured in: reported times are times at reference speed.
//
// The second thing a shared VM does is lose its cores: the hypervisor runs
// someone else while a vCPU has work, and the guest sees the gap as "steal"
// in /proc/stat (38 % of the time the VM wanted to run, on a bad afternoon).
// CPU clocks do not count stolen time; wall clocks do. The probe therefore
// also samples the VM's busy and stolen ticks, and wall-clock timings are
// divided by the slowdown times (1 + stolen/busy).
//
// The probe is a yardstick, not a model of the daemon: the saturated
// workloads slow down more than it does, so dividing by its reading removes
// about half of the run-to-run spread when the regime changes between runs
// (README.md, "Noise", has the measurements). Its reading also depends on how
// busy the harness's own vCPUs are, so it scales daemon-side timings only,
// never anything the harness runs in-process.
const (
	probeEvery = 20 * time.Millisecond
	// probeNominal is what one repeat costs on this VM in its fast regime;
	// it only fixes the scale of the reported numbers.
	probeNominal = 440 * time.Microsecond

	probeSortLen  = 1024    // L1-resident compute: fill and sort
	probeNodes    = 1 << 17 // x 64 B = 8 MiB, beyond the private caches: dependent loads
	probeSteps    = 2000
	probeMapItems = 256 // allocation, hashing and map iteration, as the Go program under test does
)

type probeNode struct {
	next *probeNode
	val  int
	_    [6]int // pad to a cache line
}

// probeWork is the fixed work and the state it runs over.
type probeWork struct {
	rng   uint64
	buf   []int
	nodes []probeNode
	cur   *probeNode
	keys  []string
	sink  int // keeps the results live
}

func (w *probeWork) rnd() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

func newProbeWork() *probeWork {
	w := &probeWork{rng: 88172645463325252, buf: make([]int, probeSortLen),
		nodes: make([]probeNode, probeNodes), keys: make([]string, probeMapItems)}
	perm := make([]int, probeNodes)
	for i := range perm {
		perm[i] = i
	}
	for i := probeNodes - 1; i > 0; i-- {
		j := int(w.rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, at := range perm { // one random cycle through every node
		w.nodes[at].next = &w.nodes[perm[(i+1)%probeNodes]]
		w.nodes[at].val = i
	}
	w.cur = &w.nodes[0]
	for i := range w.keys {
		w.keys[i] = "net_" + strconv.Itoa(int(w.rnd()%100000)) + "[" + strconv.Itoa(i) + "]"
	}
	return w
}

// repeat does the fixed work once: the same instruction mix every time, over
// data that differs (the generator runs on, the chase moves along the cycle).
func (w *probeWork) repeat() {
	for i := range w.buf {
		w.buf[i] = int(w.rnd())
	}
	sort.Ints(w.buf)
	for i := 0; i < probeSteps; i++ {
		w.cur = w.cur.next
	}
	m := make(map[string]*probeNode, 64)
	for i, k := range w.keys {
		m[k] = &probeNode{val: i ^ w.cur.val}
	}
	vals := make([]int, 0, 16)
	for _, k := range w.keys {
		vals = append(vals, m[k].val)
	}
	sort.Ints(vals)
	w.sink += vals[0] + w.buf[0]
}

type probeReading struct {
	at           time.Time
	cost         time.Duration
	busy, stolen int64 // the VM's cumulative ticks over all vCPUs, from /proc/stat
}

// speed is the machine's condition over an interval, relative to the
// reference machine: 1 is reference speed, 1.5 half as slow again.
type speed struct {
	cpu    float64 // how much more CPU time the same work costs: probe cost over probeNominal
	wall   float64 // how much more wall time the same CPU-bound work takes: cpu x (1 + stolen/busy)
	stolen float64 // stolen / (busy + stolen): the share of the time the VM wanted to run that it did not get
}

// speedProbe owns the probing goroutine; close stops it and waits for it.
type speedProbe struct {
	mu       sync.Mutex
	readings []probeReading
	stop     chan struct{}
	done     chan struct{}
}

// threadCPU reads the calling thread's CPU clock. Getrusage(RUSAGE_THREAD)
// would avoid unsafe, but it lags by up to a scheduler tick.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

func (p *speedProbe) run() {
	defer close(p.done)
	runtime.LockOSThread() // the CPU clock read is per thread
	defer runtime.UnlockOSThread()
	work := newProbeWork()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		start := threadCPU()
		work.repeat()
		cost := threadCPU() - start
		busy, stolen := vmTicks()
		p.mu.Lock()
		p.readings = append(p.readings, probeReading{time.Now(), cost, busy, stolen})
		p.mu.Unlock()
	}
}

// vmTicks reads the VM's cumulative busy and stolen ticks from the first
// line of /proc/stat: cpu user nice system idle iowait irq softirq steal.
// Both read 0 where the line cannot be read, which leaves wall = cpu.
func vmTicks() (busy, stolen int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseStatTicks(line)
}

func parseStatTicks(line string) (busy, stolen int64) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]int64
	for i := range v {
		n, err := strconv.ParseInt(f[1+i], 10, 64)
		if err != nil {
			return 0, 0
		}
		v[i] = n
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// over returns the machine's condition over [from, to], from the probe's
// readings in the interval widened by one probe period each way, so that any
// interval during which the probe ran holds a reading.
func (p *speedProbe) over(from, to time.Time) (speed, error) {
	from, to = from.Add(-probeEvery), to.Add(probeEvery)
	p.mu.Lock()
	defer p.mu.Unlock()
	var (
		sum         time.Duration
		n           int
		first, last probeReading
	)
	for _, r := range p.readings {
		if r.at.Before(from) || r.at.After(to) {
			continue
		}
		if n == 0 {
			first = r
		}
		last = r
		sum += r.cost
		n++
	}
	if n == 0 {
		return speed{}, errors.New("speed probe: no reading in the interval")
	}
	s := speed{cpu: float64(sum) / float64(n) / float64(probeNominal)}
	busy, stolen := float64(last.busy-first.busy), float64(last.stolen-first.stolen)
	s.stolen = ratio(stolen, busy+stolen)
	s.wall = s.cpu * (1 + ratio(stolen, busy))
	return s, nil
}
