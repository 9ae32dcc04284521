package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlbench/internal/core"
)

// The pre-subcommand flat form is gone: a dash-prefixed first argument
// must produce the migration hint (and main exits 2 on it), never fall
// through to a half-parsed legacy flag set.
func TestFlatFormRejected(t *testing.T) {
	msg, removed := flatFormError([]string{"-figure", "fig1a", "-iters", "2"})
	if !removed {
		t.Fatalf("flat invocation not rejected")
	}
	for _, want := range []string{"top-level flags were removed", "mlbench run -figure fig1a -iters 2", "mlbench help"} {
		if !strings.Contains(msg, want) {
			t.Errorf("migration message %q missing %q", msg, want)
		}
	}
}

func TestSubcommandsNotFlatForm(t *testing.T) {
	for _, args := range [][]string{{"run", "-figure", "fig1a"}, {"list"}, nil} {
		if _, removed := flatFormError(args); removed {
			t.Errorf("args %v wrongly treated as the removed flat form", args)
		}
	}
}

// Exit codes are part of the CLI contract: every class of spec that
// RunSpec.Validate rejects exits 2 (like a flag error), whatever the
// wording of its message, and a spec that is accepted but fails to
// execute exits 1.
func TestRunExitCodes(t *testing.T) {
	// A trace path under a regular file cannot be created.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tiny := []string{"-figure", "fig6", "-row", "Spark (Java)", "-col", "5m", "-iters", "1", "-scalediv", "0.02"}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown figure", []string{"-figure", "fig9"}, 2},
		{"row without col", []string{"-figure", "fig1a", "-row", "SimSQL"}, 2},
		{"unknown row", []string{"-figure", "fig2", "-row", "Sim", "-col", "5m"}, 2},
		{"unknown col", []string{"-figure", "fig2", "-row", "SimSQL", "-col", "7m"}, 2},
		{"negative iters", []string{"-figure", "fig2", "-iters", "-1"}, 2},
		{"negative scalediv", []string{"-figure", "fig2", "-scalediv", "-1"}, 2},
		{"negative workers", []string{"-figure", "fig2", "-workers", "-1"}, 2},
		{"negative shards", []string{"-figure", "fig-ps", "-shards", "-1"}, 2},
		{"negative staleness", []string{"-figure", "fig-ps", "-staleness", "-1"}, 2},
		{"machines off fig-scale", []string{"-figure", "fig1a", "-machines", "500"}, 2},
		{"machines too small", []string{"-figure", "fig-scale", "-machines", "50"}, 2},
		{"negative chunk", []string{"-figure", "fig-scale", "-chunk", "-1"}, 2},
		{"unknown sampler", []string{"-figure", "fig4b", "-sampler", "turbo"}, 2},
		{"unknown dataset", []string{"-figure", "fig-skew", "-dataset", "skewy"}, 2},
		{"negative failures", []string{"-figure", "fig2", "-failures", "-1"}, 2},
		{"straggle below 1", []string{"-figure", "fig2", "-straggle", "0.5"}, 2},
		{"trace export fails", append([]string{"-traceout", filepath.Join(blocker, "t.json")}, tiny...), 1},
		{"ok", tiny, 0},
	}
	for _, c := range cases {
		if got := cmdRun(c.args); got != c.want {
			t.Errorf("%s: mlbench run %v exited %d, want %d", c.name, c.args, got, c.want)
		}
	}

	// Cancellation is an execution error, not a validation error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.Execute(ctx, core.RunSpec{Figure: "fig6", Iterations: 1, ScaleDiv: 0.02}, core.ExecOptions{})
	if err == nil || exitCodeFor(err) != 1 {
		t.Errorf("cancelled run: err %v, exit %d, want exit 1", err, exitCodeFor(err))
	}
}
