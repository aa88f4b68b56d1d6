package main

import (
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// janitor owns everything a run leaves behind if it dies: server processes
// and scratch directories. main calls sweep on return and on SIGINT/SIGTERM.
type janitor struct {
	mu    sync.Mutex
	procs map[*serverProc]struct{}
	dirs  []string
}

func (j *janitor) addDir(dir string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dirs = append(j.dirs, dir)
}

func (j *janitor) sweep() {
	j.mu.Lock()
	procs := make([]*serverProc, 0, len(j.procs))
	for p := range j.procs {
		procs = append(procs, p)
	}
	dirs := j.dirs
	j.dirs = nil
	j.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// serverProc is one schemr-server subprocess.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	flags   []string
	started time.Time
	log     *os.File
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	owner   *janitor
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the server binds it, so another process could take the port
// in between; the server then fails to start and the run reports it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches bin on dataDir with the workload's flags and returns
// at once; waitReady tells when it serves. stderr goes to logPath.
func (j *janitor) startServer(bin, dataDir string, flags []string, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-data", dataDir, "-addr", addr}, flags...)
	p := &serverProc{
		cmd:    exec.Command(bin, args...),
		base:   "http://" + addr,
		flags:  args,
		log:    logf,
		exited: make(chan struct{}),
		owner:  j,
	}
	p.cmd.Stdout = logf
	p.cmd.Stderr = logf
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	j.mu.Lock()
	if j.procs == nil {
		j.procs = map[*serverProc]struct{}{}
	}
	j.procs[p] = struct{}{}
	j.mu.Unlock()
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls ready until it succeeds and returns the time since the
// process was started. It fails early when the process exits.
func (p *serverProc) waitReady(ready func() bool, timeout time.Duration) (time.Duration, error) {
	deadline := p.started.Add(timeout)
	for {
		if ready() {
			return time.Since(p.started), nil
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("server exited before serving (%v); see %s", p.waitErr, p.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("server not serving after %v; see %s", timeout, p.log.Name())
		}
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func (p *serverProc) peakRSSMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// kill is kill -9: the crash the durability check recovers from.
func (p *serverProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	p.reap()
}

// stop asks for a graceful shutdown (final checkpoint included) and falls
// back to kill when the server has not exited within the timeout.
func (p *serverProc) stop(timeout time.Duration) error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		p.reap()
		return nil
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("server ignored SIGTERM for %v", timeout)
	}
}

func (p *serverProc) reap() {
	<-p.exited
	p.log.Close()
	p.owner.mu.Lock()
	delete(p.owner.procs, p)
	p.owner.mu.Unlock()
}

// copyDir copies the regular files of a flat directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirSizeMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}
