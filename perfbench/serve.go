package main

// The dpserver process: start it on a fresh state directory, wait until it
// listens, read its CPU time and peak RSS from /proc, scrape /metrics, and
// stop it, waiting until it has exited.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is Linux's USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clockTicks = 100

type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
}

// startServer execs bin with args and returns once it announces its listen
// address, i.e. once every -preload dataset is loaded.
func startServer(bin string, args []string, stderrPath string) (*server, error) {
	stderr, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = stderr
	// If the benchmark itself dies, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stdout for the process lifetime so the server never blocks
		// on a full pipe; the first "listening on" line carries the address.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "dpserver listening on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("dpserver exited during start-up: %s", tail(stderrPath))
	case <-time.After(150 * time.Second):
		s.stop()
		return nil, errors.New("dpserver did not start within 150s")
	}
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM (graceful drain and WAL compaction), escalates to
// SIGKILL after 30s, and waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuTime returns the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) { return procCPU(s.cmd.Process.Pid) }

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procField reads one "Name: value" line of /proc/<pid>/<file> as an int.
func procField(pid int, file, name string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			return strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/%s has no %s", pid, file, name)
}

// peakRSS returns the server's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	kb, err := procField(s.cmd.Process.Pid, "status", "VmHWM")
	return float64(kb) / 1024, err
}

// promSample is one scraped /metrics sample.
type promSample map[string]float64

// scrape reads /metrics into name{labels} -> value.
func scrape(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := promSample{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// sum adds every sample whose series starts with prefix.
func (p promSample) sum(prefix string) float64 {
	t := 0.0
	for k, v := range p {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates quantile q of the histogram delta (after - before)
// from its cumulative buckets, returning the upper bound of the bucket that
// holds it (the exposition's resolution), or 0 with no observations.
func histQuantile(before, after promSample, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le := strings.TrimSuffix(rest, `"}`)
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err = 1e300, nil
		}
		if err == nil {
			bs = append(bs, bucket{bound, v - before[k]})
		}
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0
	}
	for _, b := range bs {
		if b.n >= q*total {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}
