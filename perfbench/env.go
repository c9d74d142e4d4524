package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tmpRoot holds every temporary directory the benchmark creates, inside
// the working directory so a run never writes outside its checkout.
const tmpRoot = ".bench_build/tmp"

// runEnv owns what a run leaves behind: temporary directories and
// child processes. close releases all of it and is safe to call more
// than once and from the signal handler.
type runEnv struct {
	mu      sync.Mutex
	closed  bool
	dirs    []string
	servers []*child
	binary  string // motifserve built for this invocation, once
}

func newRunEnv() *runEnv { return &runEnv{} }

// tempDir creates a directory under tmpRoot that close removes.
func (e *runEnv) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(tmpRoot, prefix)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		os.RemoveAll(dir)
		return "", fmt.Errorf("run is shutting down")
	}
	e.dirs = append(e.dirs, dir)
	return dir, nil
}

// close stops every child (waiting until each has exited) and removes
// every temporary directory.
func (e *runEnv) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	servers, dirs := e.servers, e.dirs
	e.mu.Unlock()
	for _, c := range servers {
		c.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// motifserveBinary builds cmd/motifserve from the checkout into a
// temporary directory, once per invocation.
func (e *runEnv) motifserveBinary() (string, error) {
	if e.binary != "" {
		return e.binary, nil
	}
	dir, err := e.tempDir("bin-")
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "motifserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/motifserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build motifserve: %w", err)
	}
	e.binary = bin
	return bin, nil
}

// child is a running motifserve process.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	once sync.Once
}

// startServer launches motifserve on a free loopback port with the
// given extra flags and waits for its listen line.
func (e *runEnv) startServer(args ...string) (*child, error) {
	bin, err := e.motifserveBinary()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start motifserve: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	e.mu.Lock()
	closed := e.closed
	if !closed {
		e.servers = append(e.servers, c)
	}
	e.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "motifserve listening on "); ok && !sent {
				addrCh <- a
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(c.done)
	}()
	if closed {
		c.stop()
		return nil, fmt.Errorf("run is shutting down")
	}
	select {
	case c.addr = <-addrCh:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("motifserve exited before listening")
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("motifserve did not report its address within 30s")
	}
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited after a grace period, and returns once it has been waited for.
func (c *child) stop() {
	c.once.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	})
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in
// MiB; pid 0 reads this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
