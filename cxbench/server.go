package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running cxrpq-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
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

// startServer spawns bin with flags and waits until /healthz answers. It
// returns the server and the time from spawn to ready.
func startServer(bin string, flags []string, logPath string) (*server, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The server must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: lf}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: the benchmark kills the server
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.exited:
			lf.Close()
			return nil, 0, fmt.Errorf("server exited during startup; see %s", logPath)
		default:
		}
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 120*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("server not ready after 120s; see %s", logPath)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill sends SIGKILL and waits until the process has exited.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process already exited
	<-s.exited
	s.log.Close()
}

// peakRSSMiB reads the process's VmHWM from /proc.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	DBs []struct {
		Revision  uint64 `json:"revision"`
		Sessions  int    `json:"sessions"`
		Shed      int64  `json:"shed"`
		Truncated int64  `json:"truncated"`
	} `json:"dbs"`
	Cursors int `json:"cursors"`
}

func (s *server) stats() (*serverStats, error) {
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /stats: %v", err)
	}
	if len(st.DBs) != 1 {
		return nil, fmt.Errorf("/stats lists %d dbs, want 1", len(st.DBs))
	}
	return &st, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
