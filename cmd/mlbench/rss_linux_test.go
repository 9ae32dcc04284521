package main

import (
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// TestFig2PeakRSS renders fig2 at default scale with one iteration in a
// child process that has no Go memory limit, and fails if the child's
// peak resident set exceeds 2 GB. fig2 was the figure that needed most
// memory (one dense P×P Gram partial per sender, about 6.7 GB), so this
// is the check that every figure renders on a small host. It takes about
// 15 s and runs only when MLBENCH_FULL=1 (the nightly job).
func TestFig2PeakRSS(t *testing.T) {
	if os.Getenv("MLBENCH_FULL") != "1" {
		t.Skip("set MLBENCH_FULL=1 to render fig2 at default scale")
	}
	const limit = 2 << 30
	c := exec.Command(os.Args[0], dispatchArg, "run", "-figure", "fig2", "-iters", "1")
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMEMLIMIT=") {
			c.Env = append(c.Env, kv)
		}
	}
	out, err := c.CombinedOutput()
	if err != nil {
		t.Fatalf("mlbench run -figure fig2 -iters 1: %v\n%s", err, out)
	}
	ru := c.ProcessState.SysUsage().(*syscall.Rusage)
	peak := ru.Maxrss << 10 // kilobytes on Linux
	t.Logf("fig2 -iters 1: peak RSS %d MB, %d minor faults, user %.1f s, system %.1f s",
		peak>>20, ru.Minflt, float64(ru.Utime.Nano())/1e9, float64(ru.Stime.Nano())/1e9)
	if peak > limit {
		t.Errorf("fig2 -iters 1 peaked at %d MB, limit %d MB", peak>>20, limit>>20)
	}
}
