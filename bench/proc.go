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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every live server so that no exit path — a failed
// check, a signal, the watchdog — leaves one behind.
var children struct {
	sync.Mutex
	live map[*member]bool
}

// killAllChildren kills every live server and waits for each to end.
func killAllChildren() {
	children.Lock()
	var live []*member
	for m := range children.live {
		live = append(live, m)
	}
	children.Unlock()
	for _, m := range live {
		m.kill()
	}
	for _, m := range live {
		<-m.exited
	}
}

// member is one seaserve process.
type member struct {
	id      string
	url     string
	args    []string
	bin     string
	errPath string // the process's stderr, kept for failure reports
	walDir  string // -data-dir, when the workload has one
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process has been waited for
}

func (m *member) start() error {
	errFile, err := os.OpenFile(m.errPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer errFile.Close() // the child holds its own descriptor
	m.cmd = exec.Command(m.bin, m.args...)
	m.cmd.Stderr = errFile
	// Its own process group: one kill reaches the server and anything
	// it might start, and a terminal's ^C reaches the servers only
	// through this program's handler.
	m.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := m.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", m.id, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*member]bool)
	}
	children.live[m] = true
	children.Unlock()
	m.exited = make(chan struct{})
	go func(cmd *exec.Cmd, exited chan struct{}) {
		_ = cmd.Wait() // the exit status of a stopped server says nothing
		children.Lock()
		delete(children.live, m)
		children.Unlock()
		close(exited)
	}(m.cmd, m.exited)
	return nil
}

func (m *member) pid() int { return m.cmd.Process.Pid }

// kill sends SIGKILL to the member's process group.
func (m *member) kill() {
	if m.cmd != nil && m.cmd.Process != nil {
		_ = syscall.Kill(-m.cmd.Process.Pid, syscall.SIGKILL)
	}
}

// stop asks for a graceful shutdown and escalates after grace.
func (m *member) stop(grace time.Duration) {
	_ = m.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-m.exited:
	case <-time.After(grace):
		m.kill()
		<-m.exited
	}
}

// procStat reads the member's resident set (MiB) and the CPU time it
// has used so far (user + system) from /proc.
func (m *member) procStat() (rssMB float64, cpu time.Duration, err error) {
	dir := "/proc/" + strconv.Itoa(m.pid())
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("VmRSS of %s: %w", m.id, err)
			}
			rssMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks of 10 ms.
	_, rest, ok := strings.Cut(string(stat), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, 0, fmt.Errorf("unreadable %s/stat", dir)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return rssMB, time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// stderrTail returns the last lines the member wrote to stderr.
func (m *member) stderrTail() string {
	b, err := os.ReadFile(m.errPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// topology is the set of servers one workload runs against.
type topology struct {
	members []*member
	dir     string // scratch: stderr files and WAL trees
	admin   *http.Client
}

// startTopology picks free loopback ports, spawns the workload's
// servers under dir and waits until each answers /healthz.
func startTopology(bin string, sp spec, dir string) (*topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topology{dir: dir, admin: &http.Client{Timeout: 5 * time.Second}}
	ports, err := freePorts(sp.members)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i, p := range ports {
		m := &member{
			id: "n" + strconv.Itoa(i), bin: bin,
			url:     "http://127.0.0.1:" + strconv.Itoa(p),
			errPath: filepath.Join(dir, "n"+strconv.Itoa(i)+".stderr"),
		}
		// A port handed back by the kernel can still be somebody's
		// server by the time we use it; never adopt a stranger.
		if t.healthy(m) {
			return nil, fmt.Errorf("port %d already answers /healthz", p)
		}
		peers = append(peers, m.id+"="+m.url)
		t.members = append(t.members, m)
	}
	for i, m := range t.members {
		m.args = []string{
			"-addr", "127.0.0.1:" + strconv.Itoa(ports[i]),
			"-rows", strconv.Itoa(sp.rows), "-seed", strconv.Itoa(stateSeed),
		}
		if sp.members > 1 {
			m.args = append(m.args, "-node-id", m.id, "-peers", strings.Join(peers, ","))
		}
		if sp.walDir {
			m.walDir = filepath.Join(dir, "wal-"+m.id)
			m.args = append(m.args, "-data-dir", m.walDir)
		}
		m.args = append(m.args, sp.serverFlags()...)
		if err := m.start(); err != nil {
			t.stop()
			return nil, err
		}
	}
	for _, m := range t.members {
		if err := t.awaitHealthy(m, 60*time.Second); err != nil {
			err = fmt.Errorf("%w\n--- %s stderr ---\n%s", err, m.id, m.stderrTail())
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

func freePorts(n int) ([]int, error) {
	var ports []int
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func (t *topology) healthy(m *member) bool {
	resp, err := t.admin.Get(m.url + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (t *topology) awaitHealthy(m *member, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if t.healthy(m) {
			return nil
		}
		select {
		case <-m.exited:
			return fmt.Errorf("%s exited before serving", m.id)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s did not answer /healthz within %v", m.id, limit)
}

func (t *topology) urls() []string {
	out := make([]string, len(t.members))
	for i, m := range t.members {
		out[i] = m.url
	}
	return out
}

// stop shuts every member down and waits for it.
func (t *topology) stop() {
	var wg sync.WaitGroup
	for _, m := range t.members {
		if m.cmd == nil || m.cmd.Process == nil {
			continue
		}
		wg.Add(1)
		go func(m *member) { defer wg.Done(); m.stop(3 * time.Second) }(m)
	}
	wg.Wait()
	t.admin.CloseIdleConnections()
}

// usage sums the members' resident memory and CPU time.
func (t *topology) usage() (rssMB float64, cpu time.Duration, err error) {
	for _, m := range t.members {
		r, c, err := m.procStat()
		if err != nil {
			return 0, 0, err
		}
		rssMB += r
		cpu += c
	}
	return rssMB, cpu, nil
}

// getJSON fetches path from m into v.
func (t *topology) getJSON(m *member, path string, v any) error {
	resp, err := t.admin.Get(m.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: HTTP %d", m.url, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// failureReport gathers every member's stderr tail.
func (t *topology) failureReport() string {
	var b bytes.Buffer
	for _, m := range t.members {
		fmt.Fprintf(&b, "--- %s stderr ---\n%s\n", m.id, m.stderrTail())
	}
	return b.String()
}
