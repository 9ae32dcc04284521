package main

import (
	"bytes"
	"context"
	"errors"
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

// env is where one invocation finds the repository, its built programs
// and its output directory.
type env struct {
	root     string // repository (checkout) root, holding go.mod
	bin      string // directory of the built mlbench and mlbenchd
	out      string // report, traces, child stderr logs
	buildSec float64
}

func (e *env) mlbench() string  { return filepath.Join(e.bin, "mlbench") }
func (e *env) mlbenchd() string { return filepath.Join(e.bin, "mlbenchd") }

// findRoot walks up from dir to the directory whose go.mod declares
// module mlbench.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module mlbench\n") {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no go.mod of module mlbench at or above %s", dir)
		}
	}
}

// build compiles cmd/mlbench and cmd/mlbenchd from the checkout's
// source into e.bin and records how long that took (proc.build_s; a warm
// build cache makes it a fraction of a second).
func (e *env) build(ctx context.Context) error {
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/mlbench", "./cmd/mlbenchd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/mlbench ./cmd/mlbenchd: %w\n%s", err, out)
	}
	e.buildSec = time.Since(start).Seconds()
	return nil
}

// childRun is one finished `mlbench` child.
type childRun struct {
	stdout  []byte
	wallSec float64
	cpuSec  float64 // user + system
	rssMB   float64 // peak resident set
	err     error   // non-zero exit or start failure
}

// openLog opens the named child stderr log under e.out for appending.
func (e *env) openLog(name string) (*os.File, error) {
	return os.OpenFile(filepath.Join(e.out, name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

// runMlbench runs `mlbench <args>` with stdin, appending its stderr to
// the named log under e.out.
func (e *env) runMlbench(ctx context.Context, log string, stdin []byte, args ...string) childRun {
	logf, err := e.openLog(log)
	if err != nil {
		return childRun{err: err}
	}
	defer logf.Close()
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, e.mlbench(), args...)
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stdout = &stdout
	cmd.Stderr = logf
	start := time.Now()
	err = cmd.Run()
	r := childRun{stdout: stdout.Bytes(), wallSec: time.Since(start).Seconds(), err: err}
	if ps := cmd.ProcessState; ps != nil {
		r.cpuSec = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return r
}

// runSpec runs one `mlbench run -spec -` child.
func (e *env) runSpec(ctx context.Context, log string, spec []byte) childRun {
	return e.runMlbench(ctx, log, spec, "run", "-spec", "-")
}

// daemon is one running mlbenchd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	bootMs float64 // exec -> first 200 from /healthz
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs mlbenchd with workers experiment workers and waits
// for /healthz. Its stderr goes to the named log under e.out.
func (e *env) startDaemon(ctx context.Context, log string, workers int) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := e.openLog(log)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.mlbenchd(), "-addr", addr, "-workers", strconv.Itoa(workers))
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("mlbenchd on %s did not answer /healthz within 10s (see %s)", addr, log)
		}
		time.Sleep(250 * time.Microsecond)
	}
	d.bootMs = float64(time.Since(start)) / float64(time.Millisecond)
	return d, nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
}

// stop sends SIGTERM and waits for the graceful drain; it returns how
// long the drain took. A non-zero exit, or a drain that outlasts 30s and
// has to be killed, is an error.
func (d *daemon) stop() (drainSec float64, err error) {
	defer d.log.Close()
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		return 0, fmt.Errorf("mlbenchd: SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		err = errors.New("drain exceeded 30s; killed")
	}
	drainSec = time.Since(start).Seconds()
	if err != nil {
		return drainSec, fmt.Errorf("mlbenchd: drain: %w", err)
	}
	return drainSec, nil
}

// cpuSec reads the daemon's user+system CPU seconds so far from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks; Linux runs
// USER_HZ = 100 on every supported architecture).
func (d *daemon) cpuSec() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from after the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format: %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat format: %q", data)
	}
	return (utime + stime) / 100, nil
}
