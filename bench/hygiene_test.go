package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildBinary builds gdbe2e once per test binary.
var buildBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "gdbe2e-build")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "gdbe2e")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		return "", errors.New(string(out))
	}
	return bin, nil
})

// watch collects a process's stderr and reports the first server address.
type watch struct {
	mu     sync.Mutex
	addr   string
	seen   chan struct{}
	stderr bytes.Buffer
}

func (w *watch) scan(r *bufio.Scanner) {
	for r.Scan() {
		line := r.Text()
		w.mu.Lock()
		w.stderr.WriteString(line + "\n")
		if i := strings.Index(line, "serving on "); i >= 0 {
			w.addr = strings.TrimSpace(line[i+len("serving on "):])
			select {
			case <-w.seen:
			default:
				close(w.seen)
			}
		}
		w.mu.Unlock()
	}
}

// TestLeavesNothingBehind runs the built binary in a process group of its
// own, once to completion and once with SIGTERM in the middle of the
// window, and requires that within two seconds of its end the group is
// empty, the server's port refuses connections, and the scratch directory
// is gone. An earlier attempt at this benchmark was rejected for leaving
// a process running.
func TestLeavesNothingBehind(t *testing.T) {
	bin, err := buildBinary()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(filepath.Dir(bin)) })
	for _, tc := range []struct {
		name      string
		interrupt bool
	}{{"to completion", false}, {"SIGTERM mid-window", true}} {
		t.Run(tc.name, func(t *testing.T) {
			scratch := filepath.Join(t.TempDir(), "scratch")
			cmd := exec.Command(bin, "-workload", "rw_disk", "-quick", "-seconds", "1", "-dir", scratch)
			cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			pipe, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			pgid := cmd.Process.Pid
			w := &watch{seen: make(chan struct{})}
			scanned := make(chan struct{})
			go func() { defer close(scanned); w.scan(bufio.NewScanner(pipe)) }()
			exited := make(chan error, 1)
			go func() { <-scanned; exited <- cmd.Wait() }()

			var ended time.Time
			if tc.interrupt {
				select {
				case <-w.seen:
				case err := <-exited:
					t.Fatalf("exited before serving: %v\n%s", err, w.stderr.String())
				case <-time.After(20 * time.Second):
					t.Fatal("never started serving")
				}
				// The last set-up round is under way or the window has
				// begun; either way the server is up and clients run.
				time.Sleep(300 * time.Millisecond)
				if err := syscall.Kill(pgid, syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				ended = time.Now()
			}
			select {
			case err = <-exited:
			case <-time.After(30 * time.Second):
				syscall.Kill(-pgid, syscall.SIGKILL)
				t.Fatalf("still running after 30 s\n%s", w.stderr.String())
			}
			if tc.interrupt {
				if took := time.Since(ended); took > 2*time.Second {
					t.Errorf("took %v to exit after SIGTERM", took)
				}
				if err == nil {
					t.Errorf("exit code 0 after SIGTERM")
				}
				if strings.Contains(stdout.String(), `"correct"`) {
					t.Errorf("an interrupted run printed a result line")
				}
			} else if err != nil {
				t.Fatalf("run failed: %v\n%s", err, w.stderr.String())
			}

			// Nothing may be left in the group, on the port or on disk.
			deadline := time.Now().Add(2 * time.Second)
			for {
				err := syscall.Kill(-pgid, 0)
				if errors.Is(err, syscall.ESRCH) {
					break
				}
				if time.Now().After(deadline) {
					syscall.Kill(-pgid, syscall.SIGKILL)
					t.Fatalf("process group %d is not empty: %v", pgid, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			if w.addr == "" {
				t.Fatalf("no server address seen\n%s", w.stderr.String())
			}
			if c, err := net.DialTimeout("tcp", w.addr, time.Second); err == nil {
				c.Close()
				t.Errorf("port %s still accepts connections", w.addr)
			}
			if _, err := os.Stat(scratch); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("scratch directory %s is still there (%v)", scratch, err)
			}
		})
	}
}
