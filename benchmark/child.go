package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind (the cgserve binary, its
// log, trace files, the report); benchmark/.gitignore names it.
const outDir = "out"

// repoRoot is the vrcg checkout this benchmark sits in. go run -C
// benchmark (and go test) start the process in the benchmark directory.
func repoRoot() (string, error) {
	blob, err := os.ReadFile(filepath.Join("..", "go.mod"))
	if err != nil || !bytes.HasPrefix(blob, []byte("module vrcg\n")) {
		return "", errors.New("benchmark: run from the benchmark directory of a vrcg checkout (go run -C benchmark .)")
	}
	return filepath.Abs("..")
}

// buildServer compiles cmd/cgserve from the working tree into outDir
// and returns the binary path and the build time (reported, not
// judged: it measures the Go toolchain's cache, not this repository).
func buildServer() (bin string, buildS float64, err error) {
	root, err := repoRoot()
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err = filepath.Abs(filepath.Join(outDir, "cgserve"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cgserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/cgserve: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// child is one booted cgserve process.
type child struct {
	cmd    *exec.Cmd
	log    *os.File
	base   string // http://127.0.0.1:port
	bootMS float64
}

// children tracks live processes so an interrupt or a panic can stop
// them (main installs the handler; see killChildren).
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.live {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
	}
	children.live = nil
}

// bootServer starts cgserve at its defaults on an ephemeral loopback
// port and waits for /healthz. The port is taken by binding :0 and
// releasing it; cgserve has no flag that reports a kernel-chosen port.
func bootServer(bin string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.OpenFile(filepath.Join(outDir, "cgserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c := &child{cmd: exec.Command(bin, "-addr", addr), log: logf, base: "http://" + addr}
	c.cmd.Stderr = logf
	// The kernel kills the child if this process dies without cleanup.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()

	hc := &http.Client{Timeout: time.Second}
	for deadline := start.Add(10 * time.Second); ; {
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cgserve at %s not healthy after 10s (see %s/cgserve.log): %v", addr, outDir, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	hc.CloseIdleConnections()
	c.bootMS = float64(time.Since(start)) / 1e6
	return c, nil
}

// stop asks the child to shut down, kills it if it lingers, and waits
// until it has ended.
func (c *child) stop() {
	children.Lock()
	_, live := children.live[c]
	delete(children.live, c)
	children.Unlock()
	if !live {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	c.log.Close()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetOwnPeakRSS returns this process's freed memory to the system and
// restarts its VmHWM from what is left (writing 5 to clear_refs does
// that), so that what is read after a window is the peak of the solves
// and of what set-up left live. How much of set-up's garbage is still
// resident at its peak is the collector's timing: lib-stream's VmHWM
// over set-up and window read 123-164 MB, and 73-77 MB from here. Where
// clear_refs is not writable the mark stays as it was.
func resetOwnPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: VmHWM not reset:", err)
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds reads utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis, so utime and stime are 12 and 13 there.
	s := string(blob)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// selfCPUSeconds is this process's user+system time, at microsecond
// resolution.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// serverMetrics is the part of cgserve's GET /metrics the layer
// metrics read.
type serverMetrics struct {
	QueueRejects uint64 `json:"queue_rejects"`
	SessionPools struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"session_pools"`
	Sequences *struct {
		Created uint64 `json:"created"`
		Reused  uint64 `json:"reused"`
	} `json:"sequences"`
}

func (c *child) scrape() (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
