package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves behind: the per-run temp
// directory and the child processes. cleanup undoes all of it and is
// safe to call from any exit path, more than once.
type harness struct {
	root   string // checkout root: the directory of the repro module
	binDir string // built cats and catsserve
	tmp    string // this run's scratch directory
	yard   *yardstick

	mu       sync.Mutex
	children []*child
	cleaned  bool
}

// findRoot walks up from the working directory to the go.mod of the
// repro module, so the benchmark runs the same from the checkout root
// (bench/run.sh) and from bench/ (go run -C bench .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod of module repro above the working directory; run from inside the checkout")
		}
		dir = parent
	}
}

// newHarness prepares .bench_build/ under the checkout root: binaries
// in bin/, one fresh directory per run in tmp/. Everything the
// benchmark writes lands there or in bench/out/.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	h := &harness{root: root, binDir: filepath.Join(build, "bin")}
	h.yard = newYardstick(h)
	for _, d := range []string{h.binDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	h.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return h, nil
}

// dir creates a fresh subdirectory of the run's scratch directory.
func (h *harness) dir(prefix string) (string, error) {
	return os.MkdirTemp(h.tmp, prefix+"-")
}

// buildBinaries compiles the shipped programs the workloads drive. With
// a warm build cache this is a no-op check; it is part of set-up either
// way, because a user who changes the code pays it.
func (h *harness) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", h.binDir+string(os.PathSeparator), "./cmd/cats", "./cmd/catsserve")
	cmd.Dir = h.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/cats ./cmd/catsserve: %v\n%s", err, out)
	}
	return nil
}

func (h *harness) bin(name string) string { return filepath.Join(h.binDir, name) }

// cleanup kills every child's process group and removes the run's
// scratch directory.
func (h *harness) cleanup() {
	h.mu.Lock()
	if h.cleaned {
		h.mu.Unlock()
		return
	}
	h.cleaned = true
	children := h.children
	h.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(h.tmp)
}

// child is a started program in its own process group.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	waited chan struct{} // closed once Wait has returned
	err    error
}

// start launches a program in its own process group and registers it
// for cleanup. Its stderr is kept for diagnostics.
func (h *harness) start(path string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(path, args...), waited: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	h.mu.Lock()
	if h.cleaned {
		h.mu.Unlock()
		return nil, errors.New("bench: harness already cleaned up")
	}
	if err := c.cmd.Start(); err != nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(path), err)
	}
	h.children = append(h.children, c)
	h.mu.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		close(c.waited)
	}()
	return c, nil
}

// forget drops an exited child from the cleanup list, so a run that
// starts hundreds of short jobs does not keep them all.
func (h *harness) forget(c *child) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, x := range h.children {
		if x == c {
			h.children = append(h.children[:i], h.children[i+1:]...)
			return
		}
	}
}

// kill ends the child's whole process group and waits for it.
func (c *child) kill() {
	select {
	case <-c.waited:
		return
	default:
	}
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // the group may already be gone
	<-c.waited
}

// wait blocks until the child exits or the timeout passes (then it is
// killed) and returns its exit error.
func (c *child) wait(timeout time.Duration) error {
	select {
	case <-c.waited:
	case <-time.After(timeout):
		c.kill()
		return fmt.Errorf("%s: still running after %s; killed", filepath.Base(c.cmd.Path), timeout)
	}
	return c.err
}

// hwmMiB reads a live child's peak resident set (VmHWM) from /proc. It
// is read from the child's own address space, not taken from ru_maxrss
// after exit: Linux folds the parent's resident set at fork time into
// the child's ru_maxrss, so a benchmark holding a few hundred MiB of
// requests would report its own size as the program's.
func (c *child) hwmMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, false
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return 0, false
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return 0, false
	}
	kib, err := strconv.ParseFloat(f[0], 64)
	return kib / 1024, err == nil
}

// watchHWM polls hwmMiB until the child exits and returns the last
// value seen. VmHWM only grows, so the last reading before exit is the
// peak but for whatever the final few milliseconds added.
func (c *child) watchHWM() float64 {
	var last float64
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if v, ok := c.hwmMiB(); ok {
			last = v
		}
		select {
		case <-c.waited:
			return last
		case <-tick.C:
		}
	}
}

// cpu reads a running child's user+system CPU time from /proc. The
// kernel counts in clock ticks (100 Hz on every Linux the repo targets),
// which is fine over the seconds-long phases it is used for. It reports
// false where /proc is unavailable.
func (c *child) cpu() (time.Duration, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, false
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, i.e. 12th and 13th after ")".
	_, rest, ok := strings.Cut(string(b), ") ")
	if !ok {
		return 0, false
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, false
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ut+st) * tick, true
}

// server is a booted catsserve.
type server struct {
	proc   *child
	base   string // http://127.0.0.1:port
	bootMS float64
	// peakRSSMiB is filled by stop.
	peakRSSMiB float64
}

// freeAddr finds a free loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// bootServer starts the real catsserve on a free loopback port with its
// default batching flags and waits for /readyz. bootMS is exec → ready.
func (h *harness) bootServer(modelsDir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	proc, err := h.start(h.bin("catsserve"),
		"-models", modelsDir, "-default-tenant", tenantDefault,
		"-admin-token", adminToken, "-retrain-interval", "1h", "-addr", addr)
	if err != nil {
		return nil, err
	}
	s := &server{proc: proc, base: "http://" + addr}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootMS = float64(time.Since(t0)) / float64(time.Millisecond)
				return s, nil
			}
		}
		select {
		case <-proc.waited:
			return nil, fmt.Errorf("catsserve exited during boot: %v\n%s", proc.err, proc.stderr.String())
		default:
		}
		if time.Since(t0) > 30*time.Second {
			proc.kill()
			return nil, fmt.Errorf("catsserve not ready after 30s\n%s", proc.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop notes the server's peak resident set, drains it with SIGTERM and
// returns once it has exited.
func (s *server) stop() error {
	s.peakRSSMiB, _ = s.proc.hwmMiB()
	_ = s.proc.cmd.Process.Signal(syscall.SIGTERM) // already-exited is reported by wait
	if err := s.proc.wait(20 * time.Second); err != nil {
		return fmt.Errorf("catsserve shutdown: %v\n%s", err, tail(s.proc.stderr.String(), 10))
	}
	return nil
}

// tail keeps the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// scrape is one parsed /metrics page: series line → value, where the
// key is the text before the value ("name{labels}").
type scrape map[string]float64

// scrapeMetrics fetches and parses /metrics, returning the round-trip
// time too.
func (s *server) scrapeMetrics(client *http.Client) (scrape, time.Duration, error) {
	t0 := time.Now()
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
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
		out[line[:i]] += v
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return out, time.Since(t0), nil
}

// total sums every series of the named metric whose label text
// contains all the given fragments (e.g. `stage="analyze"`), across
// tenants.
func (s scrape) total(name string, labelFragments ...string) float64 {
	var sum float64
next:
	for key, v := range s {
		base, labels, _ := strings.Cut(key, "{")
		if base != name {
			continue
		}
		for _, frag := range labelFragments {
			if !strings.Contains(labels, frag) {
				continue next
			}
		}
		sum += v
	}
	return sum
}
