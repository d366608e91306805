package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/liberty"
)

// env is what one harness invocation runs with.
type env struct {
	ctx     context.Context
	chatlsd string // path of the built daemon binary
	tmp     string // this run's own temp directory (QoR logs, daemon logs)
	seed    int64
	lib     *liberty.Library
	probe   *speedProbe // reads the machine's speed for as long as the harness runs
}

// pass is the record of one daemon pass of a workload: set-up, warm-up, the
// measured window, and the /metrics scrapes that bracket the window.
type pass struct {
	designs []string
	samples []sample // the measured window: whole cycles, whole lifecycles, or every arrival
	wall    time.Duration
	// slow is the machine's condition over the measured window, as the
	// speed probe read it; end-to-end latencies are divided by its wall
	// factor. The set-up times and the slice readings below are already at
	// reference speed, each scaled by the condition of its own interval.
	slow   speed
	setupS []float64 // one per daemon start that counts as set-up
	rssMiB float64
	// Equal slices of the window (cycles, lifecycles, or fifths of the open
	// window): requests per second and daemon CPU per request in each.
	sliceRPS   []float64
	sliceCPUms []float64
	cycles     int
	lateMS     []float64 // open loop only
	blocked    int
	arrivals   int
	drainMS    []float64 // SIGTERM -> exit, per stop of a daemon that served the window
	before     map[string]float64
	after      map[string]float64
	checked    int // distinct requests compared with the oracle
}

// cpuReader turns the daemon's CPU clock into a func for the load loops and
// keeps the first read error for the caller.
type cpuReader struct {
	d   *daemon
	err error
}

func (c *cpuReader) read() time.Duration {
	v, err := c.d.cpu()
	if err != nil && c.err == nil {
		c.err = err
	}
	return v
}

// setupAtReference is a started daemon's set-up time at reference speed.
func setupAtReference(e env, d *daemon) (float64, error) {
	slow, err := e.probe.over(d.started, d.started.Add(d.ready))
	return d.ready.Seconds() / slow.wall, err
}

// startCounted starts the daemon n times, stopping all but the last, and
// returns the last one with every start's set-up time.
func startCounted(e env, n int, flags ...string) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, err := startDaemon(e.ctx, e.chatlsd, e.tmp, flags...)
		if err != nil {
			return nil, nil, err
		}
		setup, err := setupAtReference(e, d)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		setups = append(setups, setup)
		if i == n-1 {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

func customizeURL(d *daemon) string { return d.url("/v1/customize") }

// closedPass measures a closed-loop workload: starts set-up starts, one
// warm-up cycle, then whole cycles for at least window. extra, when set,
// runs against the still-warm daemon after the window.
func closedPass(e env, w workload, starts int, window time.Duration, chk *checker, extra func(*daemon, []string) error) (*pass, error) {
	d, setups, err := startCounted(e, starts)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p := &pass{setupS: setups}
	if p.designs, err = d.designNames(); err != nil {
		return nil, err
	}
	cycle := w.closedCycle(p.designs, e.seed)
	n := len(cycle)
	client := newClient(closedClients)
	defer client.CloseIdleConnections()
	cpu := &cpuReader{d: d}

	runClosed(client, customizeURL(d), cycle, closedClients, 0, chk, cpu.read) // warm-up: one cycle
	if p.before, err = d.scrape(); err != nil {
		return nil, err
	}
	run := runClosed(client, customizeURL(d), cycle, closedClients, window, chk, cpu.read)
	if p.after, err = d.scrape(); err != nil {
		return nil, err
	}
	if p.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	if cpu.err != nil {
		return nil, cpu.err
	}
	p.samples, p.cycles = run.samples, len(run.cycleEnd)
	p.wall = run.cycleEnd[p.cycles-1]
	if p.slow, err = e.probe.over(run.t0, run.t0.Add(p.wall)); err != nil {
		return nil, err
	}
	prevEnd, prevCPU := time.Duration(0), run.startCPU
	for c := range run.cycleEnd {
		slow, err := e.probe.over(run.t0.Add(prevEnd), run.t0.Add(run.cycleEnd[c]))
		if err != nil {
			return nil, err
		}
		ok := tallyOf(run.samples[c*n : (c+1)*n]).ok
		p.sliceRPS = append(p.sliceRPS, slow.wall*ratio(float64(ok), (run.cycleEnd[c]-prevEnd).Seconds()))
		p.sliceCPUms = append(p.sliceCPUms, ratio(float64(run.cycleCPU[c]-prevCPU)/float64(time.Millisecond), float64(ok))/slow.cpu)
		prevEnd, prevCPU = run.cycleEnd[c], run.cycleCPU[c]
	}
	if extra != nil {
		if err := extra(d, p.designs); err != nil {
			return nil, err
		}
	}
	err = d.stop()
	p.drainMS = append(p.drainMS, float64(d.drain)/float64(time.Millisecond))
	return p, err
}

// coldPass measures daemon lifecycles until window has elapsed (at least
// two): exec, wait for /healthz, one request per cell sequentially, SIGTERM.
// A lifecycle is the slice: its rate and CPU cover exec to last reply.
// after, when set, runs once each lifecycle's daemon has exited.
func coldPass(e env, w workload, window time.Duration, chk *checker, after func(j int, serviceMS float64) error) (*pass, error) {
	p := &pass{before: map[string]float64{}, after: map[string]float64{}}
	client := newClient(1)
	defer client.CloseIdleConnections()
	t0 := time.Now()
	for j := 0; j < 2 || time.Since(t0) < window; j++ {
		d, err := startDaemon(e.ctx, e.chatlsd, e.tmp)
		if err != nil {
			return nil, err
		}
		defer d.stop()
		if p.designs == nil {
			if p.designs, err = d.designNames(); err != nil {
				return nil, err
			}
		}
		before, err := d.scrape()
		if err != nil {
			return nil, err
		}
		ready := time.Now()
		samples := runSerial(client, customizeURL(d), w.coldLifecycle(p.designs, e.seed, j), chk)
		life := d.ready + time.Since(ready)
		scraped, err := d.scrape()
		if err != nil {
			return nil, err
		}
		cpu, err := d.cpu()
		if err != nil {
			return nil, err
		}
		rss, err := d.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		slow, err := e.probe.over(d.started, d.started.Add(life))
		if err != nil {
			return nil, err
		}
		setup, err := setupAtReference(e, d)
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		ok := tallyOf(samples).ok
		p.samples = append(p.samples, samples...)
		p.setupS = append(p.setupS, setup)
		p.rssMiB = max(p.rssMiB, rss)
		p.sliceRPS = append(p.sliceRPS, slow.wall*ratio(float64(ok), life.Seconds()))
		p.sliceCPUms = append(p.sliceCPUms, ratio(float64(cpu)/float64(time.Millisecond), float64(ok))/slow.cpu)
		p.drainMS = append(p.drainMS, float64(d.drain)/float64(time.Millisecond))
		p.wall += life
		p.slow.cpu += slow.cpu
		p.slow.wall += slow.wall
		p.slow.stolen += slow.stolen
		p.cycles++
		served := delta(before, scraped)
		for k, v := range served { // counters restart with the process: sum the per-lifecycle deltas
			p.after[k] += v
		}
		if after != nil {
			if err := after(j, 1000*ratio(served["chatlsd_customize_seconds_sum"], served["chatlsd_customize_seconds_count"])); err != nil {
				return nil, err
			}
		}
	}
	// The mean over the lifecycles: what ran between them is not the daemon's.
	p.slow.cpu /= float64(p.cycles)
	p.slow.wall /= float64(p.cycles)
	p.slow.stolen /= float64(p.cycles)
	return p, nil
}

// warmLog starts a daemon on a fresh QoR log, runs the warm-up cycle that
// populates it, and stops the daemon. The log at the returned path is what
// every later start of the workload recovers from.
func warmLog(e env, w workload, chk *checker) (path string, designs []string, err error) {
	path = filepath.Join(e.tmp, "qor.log")
	d, err := startDaemon(e.ctx, e.chatlsd, e.tmp, "-qor-log", path)
	if err != nil {
		return "", nil, err
	}
	defer d.stop()
	if designs, err = d.designNames(); err != nil {
		return "", nil, err
	}
	warm := w.openWarmup(designs, e.seed)
	client := newClient(closedClients)
	defer client.CloseIdleConnections()
	run := runClosed(client, customizeURL(d), warm, closedClients, 0, chk, func() time.Duration { return 0 })
	if t := tallyOf(run.samples); t.ok != t.sent {
		return "", nil, fmt.Errorf("warm-up: %d of %d requests failed", t.sent-t.ok, t.sent)
	}
	return path, designs, d.stop()
}

// copyFile gives a daemon its own copy of the warmed log, so that what one
// pass appends never changes what the next one recovers.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// openPass measures the open loop: starts restarts on the warmed log (each
// one's set-up includes recovery and warm-fill), then the arrival schedule.
func openPass(e env, w workload, warmed string, designs []string, starts int, window time.Duration, chk *checker) (*pass, error) {
	log := filepath.Join(e.tmp, "qor-open.log")
	if err := copyFile(log, warmed); err != nil {
		return nil, err
	}
	d, setups, err := startCounted(e, starts, "-qor-log", log)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p := &pass{setupS: setups, designs: designs}
	client := newClient(openConns)
	defer client.CloseIdleConnections()
	arrivals := w.openArrivals(designs, e.seed, openRate, window)

	if p.before, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	run := runOpen(client, customizeURL(d), arrivals, openConns, chk)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	if p.after, err = d.scrape(); err != nil {
		return nil, err
	}
	if p.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	p.samples, p.lateMS, p.blocked, p.arrivals = run.samples, run.lateMS, run.blocked, run.arrivals
	for _, s := range run.samples {
		p.wall = max(p.wall, s.end)
	}
	if p.slow, err = e.probe.over(run.t0, run.t0.Add(p.wall)); err != nil {
		return nil, err
	}
	const slices = 5
	counts := make([]int, slices)
	for _, s := range run.samples {
		if s.ok {
			counts[min(int(s.end*slices/p.wall), slices-1)]++
		}
	}
	for _, c := range counts {
		p.sliceRPS = append(p.sliceRPS, float64(c)/(p.wall.Seconds()/slices))
	}
	p.sliceCPUms = []float64{ratio(float64(cpu1-cpu0)/float64(time.Millisecond), float64(tallyOf(run.samples).ok)) / p.slow.cpu}
	p.cycles = 1
	err = d.stop()
	p.drainMS = append(p.drainMS, float64(d.drain)/float64(time.Millisecond))
	return p, err
}

// openStep runs one rate of the latency ladder against a warm daemon and
// reports p95 and whether the rate was sustained: every reply right, and the
// backlog at the end of the step no deeper than the connections can hold.
func openStep(d *daemon, w workload, designs []string, seed int64, rate float64, window time.Duration) (p95 float64, sustained bool) {
	client := newClient(openConns)
	defer client.CloseIdleConnections()
	run := runOpen(client, customizeURL(d), w.openArrivals(designs, seed, rate, window), openConns, newChecker())
	t := tallyOf(run.samples)
	var last time.Duration
	for _, s := range run.samples {
		last = max(last, s.end)
	}
	// A backlog that grew through the step shows as replies still arriving
	// long after the last arrival was due: allow one p95's worth.
	p95 = percentile(t.latMS, 95)
	drained := last-window <= time.Duration(p95*float64(time.Millisecond))+time.Second/10
	return p95, t.ok == t.sent && drained
}
