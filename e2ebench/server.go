package main

// The mhserve child process and the HTTP calls the benchmark makes to
// it: building, launching on a data directory, waiting for readiness,
// stopping, and reading its memory, its disk use and its /metrics.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mhxquery"
)

// buildServer compiles cmd/mhserve of the tree at root into bin.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mhserve")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building mhserve: %v\n%s", err, out)
	}
	return nil
}

// server is one running mhserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string
	exited chan struct{} // closed once the process has been reaped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches mhserve on dir, logging to logPath, and returns
// once the process runs; call waitReady for readiness.
func startServer(bin, dir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("choosing a port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-dir", dir)
	// Should the benchmark itself be killed, the server dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting mhserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, dir: dir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("mhserve exited before becoming ready (see %s)", s.dir+".log")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mhserve not ready after %v", timeout)
		}
		// Polling much faster would take CPU from the recovery it waits
		// for.
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM (a graceful stop) and waits for the process to
// exit, killing it if it does not within the drain bound.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMiB reads the process's VmHWM from /proc.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTicks returns the process's user plus system CPU time in clock
// ticks, from /proc/<pid>/stat.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3;
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line")
	}
	return u + st, nil
}

// waitIdle waits until the process uses at most one clock tick of CPU
// in each of two consecutive 50 ms intervals, or until limit passes.
func (s *server) waitIdle(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	prev, err := s.cpuTicks()
	if err != nil {
		return err
	}
	quiet := 0
	for quiet < 2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur, err := s.cpuTicks()
		if err != nil {
			return err
		}
		if cur-prev <= 1 {
			quiet++
		} else {
			quiet = 0
		}
		prev = cur
	}
	return nil
}

// newConn returns a client holding exactly one keep-alive connection.
// It never consults proxy settings: every request goes to loopback.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// call sends one request and reads the whole reply.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// queryReply is the body of POST /query.
type queryReply struct {
	Results []struct {
		Doc    string  `json:"doc"`
		Result *string `json:"result"`
		Error  string  `json:"error"`
	} `json:"results"`
}

// updateReply is the body of PATCH /docs/{name}.
type updateReply struct {
	Version uint64               `json:"version"`
	Stats   mhxquery.UpdateStats `json:"stats"`
	Info    docInfo              `json:"info"`
}

// docInfo is the body of GET /docs/{name}.
type docInfo struct {
	Name        string         `json:"name"`
	Hierarchies []string       `json:"hierarchies"`
	Stats       mhxquery.Stats `json:"stats"`
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src (one level, as mhserve's data
// directory is flat) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// promSample is one scrape of /metrics: every series by its full name
// with labels, as printed.
type promSample map[string]float64

// scrape reads and parses /metrics.
func (s *server) scrape(c *http.Client) (promSample, error) {
	status, body, err := call(c, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	return parseProm(body), nil
}

// parseProm parses the Prometheus text format's sample lines.
func parseProm(body []byte) promSample {
	p := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
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
		p[line[:i]] = v
	}
	return p
}

// delta returns after−before for one series (0 when absent).
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// histDelta returns the quantile q of the observations a histogram
// family (without labels other than le) received between two scrapes,
// interpolated linearly within the bucket that holds it (0 without
// observations).
func histDelta(before, after promSample, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(k[len(prefix):], `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	total := bs[len(bs)-1].n
	rank := q * total
	lo, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prevN {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prevN)/(b.n-prevN)
		}
		lo, prevN = b.le, b.n
	}
	return lo
}
