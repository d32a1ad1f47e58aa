// Package harness runs sim-vs-real conformance checks: it boots real
// pastnode processes on loopback, drives the same deterministic workload
// through them and through an in-process simulator cluster of identical
// seed and membership, and compares the structural outputs (deliveries,
// replica placement, the k-replica invariant, hop counts). It also
// provides the multi-process plumbing for crash-recovery and end-to-end
// tests: SIGKILL, restart on the same address and data dir, and stdout
// markers ("recovered N files") to synchronize on.
package harness

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"past/internal/telemetry"
)

// BuildCmd compiles cmd/<name> (pastnode, pastctl) once into dir and
// returns the binary path. It must run with the repo as working directory
// tree (tests run in their package directory, which is inside the module).
func BuildCmd(dir, name string) (string, error) {
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "past/cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("harness: build %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// ProcNode is one pastnode child process with captured, parseable output.
type ProcNode struct {
	Bin     string
	Args    []string // flags of the most recent start, for restarts
	LogPath string

	mu      sync.Mutex
	lines   []string
	cmd     *exec.Cmd
	done    chan struct{}
	addr    string
	nodeID  string
	telAddr string
}

var (
	listenRe    = regexp.MustCompile(`nodeId ([0-9a-f]+) listening on ([0-9.:]+)`)
	recoveredRe = regexp.MustCompile(`recovered (\d+) files from .* \((\d+) quarantined\)`)
	statusRe    = regexp.MustCompile(`storing (\d+) files, (\d+) peers known`)
	telemetryRe = regexp.MustCompile(`telemetry on ([0-9.:]+)`)
)

// StartProc launches pastnode with the given flags, tees its output to
// logPath, and returns once the process is running (not yet joined).
func StartProc(bin string, args []string, logPath string) (*ProcNode, error) {
	p := &ProcNode{Bin: bin, Args: args, LogPath: logPath}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *ProcNode) start() error {
	logFile, err := os.OpenFile(p.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.Bin, p.Args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return err
	}
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return err
	}
	done := make(chan struct{})
	p.mu.Lock()
	p.cmd = cmd
	p.done = done
	p.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			p.mu.Lock()
			p.lines = append(p.lines, line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				p.nodeID, p.addr = m[1], m[2]
			}
			if m := telemetryRe.FindStringSubmatch(line); m != nil {
				p.telAddr = m[1]
			}
			p.mu.Unlock()
		}
		cmd.Wait() //nolint:errcheck // exit status is irrelevant; tests assert on output
		logFile.Close()
		close(done)
	}()
	return nil
}

// WaitLine blocks until a stdout line containing substr appears (matching
// lines printed since the last start too) or the timeout expires.
func (p *ProcNode) WaitLine(substr string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	seen := 0
	for {
		p.mu.Lock()
		for _, line := range p.lines[seen:] {
			seen++
			if strings.Contains(line, substr) {
				p.mu.Unlock()
				return line, nil
			}
		}
		p.mu.Unlock()
		if time.Now().After(deadline) {
			return "", fmt.Errorf("harness: timed out waiting for %q in %s (log: %s)", substr, p.LogPath, p.LogPath)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Addr returns the node's listen address (valid after WaitListening).
func (p *ProcNode) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// NodeID returns the node's hex nodeId (valid after WaitListening).
func (p *ProcNode) NodeID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nodeID
}

// WaitListening blocks until the node has printed its listen line.
func (p *ProcNode) WaitListening(timeout time.Duration) error {
	_, err := p.WaitLine("listening on", timeout)
	return err
}

// WaitRecovered blocks until the node reports its disk recovery and
// returns the recovered and quarantined counts.
func (p *ProcNode) WaitRecovered(timeout time.Duration) (recovered, quarantined int, err error) {
	line, err := p.WaitLine("recovered", timeout)
	if err != nil {
		return 0, 0, err
	}
	m := recoveredRe.FindStringSubmatch(line)
	if m == nil {
		return 0, 0, fmt.Errorf("harness: unparseable recovery line %q", line)
	}
	recovered, _ = strconv.Atoi(m[1])
	quarantined, _ = strconv.Atoi(m[2])
	return recovered, quarantined, nil
}

// PeersKnown returns the peer count from the node's most recent status
// line, or -1 if none has been printed yet.
func (p *ProcNode) PeersKnown() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.lines) - 1; i >= 0; i-- {
		if m := statusRe.FindStringSubmatch(p.lines[i]); m != nil {
			n, _ := strconv.Atoi(m[2])
			return n
		}
	}
	return -1
}

// Kill sends SIGKILL (the crash under test) and waits for the process to
// die. The data directory survives; Restart brings the node back.
func (p *ProcNode) Kill() error {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("harness: not running")
	}
	cmd.Process.Kill() //nolint:errcheck // already-dead is fine
	<-done
	return nil
}

// Stop shuts the node down gracefully (SIGTERM), escalating to SIGKILL
// after the timeout.
func (p *ProcNode) Stop(timeout time.Duration) error {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-dead is fine
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		cmd.Process.Kill() //nolint:errcheck
		<-done
		return fmt.Errorf("harness: %s needed SIGKILL after SIGTERM", p.LogPath)
	}
}

// TelemetryAddr waits for the daemon's telemetry listener announcement
// and returns its address (the node must run with -telemetry).
func (p *ProcNode) TelemetryAddr(timeout time.Duration) (string, error) {
	if _, err := p.WaitLine("telemetry on", timeout); err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.telAddr, nil
}

// ScrapeTelemetry dials a pastnode telemetry port and parses the one-shot
// line-protocol dump it serves.
func ScrapeTelemetry(addr string) ([]telemetry.LPPoint, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	return telemetry.ParseLP(conn)
}

// GaugeValues extracts one gauge series' values in timestamp order.
func GaugeValues(points []telemetry.LPPoint, name string) []float64 {
	pts := make([]telemetry.LPPoint, 0, len(points))
	for _, p := range points {
		if p.Name == name {
			pts = append(pts, p)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].TS < pts[j].TS })
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Fields["value"]
	}
	return vals
}

// ReserveAddrs picks n distinct free loopback addresses and releases
// them, so a chaos schedule can name per-link rules before the processes
// that will own the addresses exist. The window between release and
// rebind is benign on loopback (nothing else races for the port).
func ReserveAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close() //nolint:errcheck // reservation release
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// Restart relaunches the node with the same flags, pinning the listen
// address the previous incarnation bound (a ":0" flag is rewritten to the
// concrete port), so it models a crashed daemon coming back on the same
// endpoint with the same data dir.
func (p *ProcNode) Restart() error {
	p.mu.Lock()
	if p.addr != "" {
		for i := 0; i < len(p.Args)-1; i++ {
			if p.Args[i] == "-listen" {
				p.Args[i+1] = p.addr
			}
		}
	}
	p.lines = nil
	p.addr, p.nodeID, p.telAddr = "", "", ""
	p.mu.Unlock()
	return p.start()
}
