package main

import (
	"testing"
	"time"
)

func TestSpeedIsMeanProbeCostOverNominalTimesStolenShare(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &speedProbe{}
	// One reading a second. The VM is busy 100 ticks a second throughout and
	// loses 50 more to the hypervisor in each of the last two seconds.
	costs := []time.Duration{probeNominal, probeNominal, 2 * probeNominal, 2 * probeNominal, 3 * probeNominal}
	stolen := []int64{0, 0, 0, 50, 100}
	for i, cost := range costs {
		p.readings = append(p.readings, probeReading{t0.Add(time.Duration(i) * time.Second), cost, int64(100 * i), stolen[i]})
	}
	for _, c := range []struct {
		from, to          time.Duration
		cpu, wall, stolen float64
	}{
		{0, 4 * time.Second, 1.8, 1.8 * 1.25, 0.2},                          // every reading: 100 stolen beside 400 busy
		{0, time.Second, 1, 1, 0},                                           // the fast stretch, nothing stolen
		{2 * time.Second, 4 * time.Second, 7.0 / 3, 7.0 / 3 * 1.5, 1.0 / 3}, // the slow stretch: 100 stolen beside 200 busy
		{3500 * time.Millisecond, 3600 * time.Millisecond, 0, 0, 0},         // between readings, further than one probe period from both
		{4*time.Second + probeEvery/2, 5 * time.Second, 3, 3, 0},            // widened by one period: catches the reading just before; one reading spans no ticks
		{-time.Second, -probeEvery / 2, 1, 1, 0},                            // and the one just after
		{10 * time.Second, 11 * time.Second, 0, 0, 0},                       // after the probe stopped
	} {
		got, err := p.over(t0.Add(c.from), t0.Add(c.to))
		if c.cpu == 0 {
			if err == nil {
				t.Errorf("[%v, %v]: speed %+v from no reading, want an error", c.from, c.to, got)
			}
			continue
		}
		if err != nil || !near(got.cpu, c.cpu) || !near(got.wall, c.wall) || !near(got.stolen, c.stolen) {
			t.Errorf("[%v, %v]: speed %+v (err %v), want cpu %v wall %v stolen %v", c.from, c.to, got, err, c.cpu, c.wall, c.stolen)
		}
	}
}

func TestParseStatTicks(t *testing.T) {
	busy, stolen := parseStatTicks("cpu  4793686 26458 300498 4240458 12289 7 40632 119583 0 0")
	if want := int64(4793686 + 26458 + 300498 + 7 + 40632); busy != want || stolen != 119583 {
		t.Errorf("busy %d stolen %d, want %d 119583", busy, stolen, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu a b c d e f g h"} {
		if b, s := parseStatTicks(bad); b != 0 || s != 0 {
			t.Errorf("%q parsed to %d, %d: want 0, 0", bad, b, s)
		}
	}
}

func TestSpeedProbeReadsAndStops(t *testing.T) {
	start := time.Now()
	p := startSpeedProbe()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.readings)
		p.mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d readings after 10 s", n)
		}
		time.Sleep(probeEvery)
	}
	p.close() // returns only once the goroutine has exited
	for _, r := range p.readings {
		if r.cost <= 0 {
			t.Fatalf("probe repeat cost %v: the thread CPU clock did not advance", r.cost)
		}
	}
	if s, err := p.over(start, time.Now()); err != nil || s.cpu <= 0 || s.wall < s.cpu {
		t.Errorf("speed %+v, err %v over the probe's own lifetime", s, err)
	}
}

// The probe is a yardstick: every repeat must be the same amount of work.
func TestProbeWorkRepeatsTheSameWork(t *testing.T) {
	a, b := newProbeWork(), newProbeWork()
	for i := 0; i < 3; i++ {
		a.repeat()
		b.repeat()
	}
	if a.sink != b.sink || a.cur.val != b.cur.val {
		t.Error("two probes over the same repeats ended in different states")
	}
	steps := 0
	for n := a.nodes[0].next; n != &a.nodes[0]; n = n.next {
		steps++
	}
	if steps != probeNodes-1 {
		t.Errorf("the chase visits %d nodes before it returns, want one cycle through all %d", steps+1, probeNodes)
	}
}
