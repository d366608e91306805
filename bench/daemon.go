package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux configuration Go supports;
// reading it properly needs sysconf, which needs cgo.
const clockTick = 10 * time.Millisecond

// daemon is one chatlsd process the harness started.
type daemon struct {
	cmd     *exec.Cmd
	addr    string        // host:port it listens on
	started time.Time     // exec
	ready   time.Duration // exec -> first 200 on /healthz
	logPath string

	exited   chan struct{} // closed once cmd.Wait has returned
	stopOnce sync.Once
	drain    time.Duration // SIGTERM -> exit
	stopErr  error
}

// live tracks every daemon not yet stopped, so main can stop stragglers on
// any exit path and fail the run if one was left behind.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// freeAddr asks the kernel for an unused loopback port. The port is released
// before chatlsd binds it; a lost race fails the start loudly (chatlsd exits
// before it is ready) rather than measuring the wrong process.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs chatlsd on a free port and polls /healthz until it
// answers 200. The time from exec to that answer is the daemon's set-up
// cost: library build, synthrag.Build, and QoR-log recovery and warm-fill
// when -qor-log is among the flags.
func startDaemon(ctx context.Context, bin, tmpDir string, flags ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("find a free port: %w", err)
	}
	logf, err := os.CreateTemp(tmpDir, "chatlsd-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A harness that dies without unwinding (a panic, SIGKILL) cannot run
	// stopAll; the kernel then stops the daemon for it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, started: start, logPath: logf.Name(), exited: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status of a signalled daemon carries no information
		close(d.exited)
	}()
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()

	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.NewTimer(120 * time.Second)
	defer deadline.Stop()
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("chatlsd exited before it was ready; log tail: %s", tailFile(d.logPath))
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-deadline.C:
			d.stop()
			return nil, fmt.Errorf("chatlsd not ready after 120s; log tail: %s", tailFile(d.logPath))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 30 s) and
// checks that its port is closed. Idempotent; returns the first call's error.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		sent := time.Now()
		d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has already exited
		select {
		case <-d.exited:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = errors.New("chatlsd ignored SIGTERM for 30s and was killed")
		}
		d.drain = time.Since(sent)
		if c, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
			c.Close()
			d.stopErr = fmt.Errorf("port %s still accepts connections after chatlsd exited", d.addr)
		}
		live.Lock()
		delete(live.set, d)
		live.Unlock()
	})
	return d.stopErr
}

// stopAll stops every daemon still running and reports how many there were:
// non-zero means a code path forgot its own stop.
func stopAll() int {
	live.Lock()
	var left []*daemon
	for d := range live.set {
		left = append(left, d)
	}
	live.Unlock()
	for _, d := range left {
		d.stop()
	}
	return len(left)
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// cpu returns the user+system CPU time the daemon has consumed since exec.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may itself contain spaces and parentheses, so the
// numbered fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: utime/stime not numeric")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMiB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// scrape fetches /metrics and returns every sample by its full name
// (including any {label} part).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(string(b))
}

// parseMetrics reads the Prometheus text exposition format: comment lines
// are skipped, every other line is "name value" or "name{labels} value".
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// delta is after-before per sample; samples absent before count from zero.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// designNames asks the daemon which designs it serves.
func (d *daemon) designNames() ([]string, error) {
	resp, err := http.Get(d.url("/v1/designs"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("GET /v1/designs: %w", err)
	}
	names := make([]string, len(list))
	for i, e := range list {
		names[i] = e.Name
	}
	if len(names) == 0 {
		return nil, errors.New("GET /v1/designs: empty list")
	}
	return names, nil
}

func tailFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}
