package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running histwalkd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	log  *os.File      // the daemon's stdout and stderr
	out  chan struct{} // closed once the stdout reader has drained
}

// startDaemon launches bin with args, waits for its listening line and
// then for /healthz to answer 200. It returns the daemon and the time
// from process start to the first healthy answer.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-pprof"}, args...)...)
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting histwalkd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, out: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.out)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				select {
				case addr <- strings.TrimPrefix(line[i:], "listening on "):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case d.base = <-addr:
	case <-d.out:
		_, _ = d.stop(syscall.SIGKILL)
		return nil, 0, fmt.Errorf("histwalkd exited before listening (see %s)", logPath)
	case <-time.After(60 * time.Second):
		_, _ = d.stop(syscall.SIGKILL)
		return nil, 0, errors.New("histwalkd did not start listening within 60s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			_, _ = d.stop(syscall.SIGKILL)
			return nil, 0, errors.New("histwalkd /healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop signals the daemon, waits for it to exit and returns its final
// process state, which carries the rusage (peak RSS, CPU) of its whole
// life. A daemon that ignores SIGTERM for 60s is killed.
func (d *daemon) stop(sig syscall.Signal) (*os.ProcessState, error) {
	_ = d.cmd.Process.Signal(sig)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			_ = d.cmd.Process.Kill()
		}
	}()
	<-d.out
	err := d.cmd.Wait()
	close(done)
	d.log.Close()
	if d.cmd.ProcessState == nil {
		return nil, err
	}
	return d.cmd.ProcessState, nil
}

// cpuTime reads the daemon's user+sys CPU so far from /proc. The kernel
// reports it in USER_HZ ticks, which are 1/100 s on Linux.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// rss reads the daemon's resident set size in MB from /proc.
func (d *daemon) rss() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// sampleRSS reads the daemon's RSS every interval until stop is closed,
// then delivers the samples.
func (d *daemon) sampleRSS(stop <-chan struct{}, every time.Duration) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- xs
				return
			case <-tick.C:
				if r, err := d.rss(); err == nil {
					xs = append(xs, r)
				}
			}
		}
	}()
	return out
}

// memSnap is the part of the daemon's runtime.MemStats the benchmark
// reads, as printed in the trailer of /debug/pprof/heap?debug=1.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    []uint64 // circular buffer of recent pauses
}

func (d *daemon) memStats(ctx context.Context) (memSnap, error) {
	body, err := get(ctx, d.base+"/debug/pprof/heap?debug=1")
	if err != nil {
		return memSnap{}, err
	}
	return parseMemTrailer(string(body))
}

func parseMemTrailer(s string) (memSnap, error) {
	var m memSnap
	var haveAlloc, haveGC bool
	for _, line := range strings.Split(s, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "TotalAlloc":
			n, err := strconv.ParseUint(v, 10, 64)
			m.totalAlloc, haveAlloc = n, err == nil
		case "NumGC":
			n, err := strconv.ParseUint(v, 10, 32)
			m.numGC, haveGC = uint32(n), err == nil
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return m, fmt.Errorf("PauseNs entry %q: %w", f, err)
				}
				m.pauseNs = append(m.pauseNs, n)
			}
		}
	}
	if !haveAlloc || !haveGC || len(m.pauseNs) == 0 {
		return m, errors.New("heap profile has no MemStats trailer")
	}
	return m, nil
}

// gcPauses returns the number of GCs between two snapshots and their
// total pause. The runtime keeps the last 256 pauses; beyond that the
// known pauses are scaled up to the GC count.
func gcPauses(before, after memSnap) (int, time.Duration) {
	n := int(after.numGC - before.numGC)
	if n <= 0 {
		return 0, 0
	}
	size := len(after.pauseNs)
	known := n
	if known > size {
		known = size
	}
	var sum uint64
	for i := 0; i < known; i++ {
		sum += after.pauseNs[(int(after.numGC)-1-i+size)%size]
	}
	return n, time.Duration(float64(sum) * float64(n) / float64(known))
}

// scrape fetches /metrics and returns every sample keyed by its series
// (name plus labels, as written).
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := get(ctx, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(string(body)), nil
}

func parseExposition(s string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(s, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// get fetches url and returns the body of a 200 answer.
func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}
