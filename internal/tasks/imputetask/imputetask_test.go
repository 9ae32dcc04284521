package imputetask

import (
	"strings"
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/models/impute"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

func smallCluster(machines int) *sim.Cluster {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 1000
	return sim.New(cfg)
}

func smallConfig() Config {
	// D = 6 so that with ~50% censoring a typical point still observes
	// three coordinates — enough to identify its cluster.
	return Config{K: 3, D: 6, PointsPerMachine: 400_000, Iterations: 12, Seed: 77, SVPerMachine: 8}
}

func checkResult(t *testing.T, res *task.Result, err error, iters int) {
	t.Helper()
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if len(res.IterSecs) != iters {
		t.Fatalf("iterations = %d, want %d", len(res.IterSecs), iters)
	}
	if res.InitSec <= 0 || res.AvgIterSec() <= 0 {
		t.Errorf("timings not positive")
	}
	rmse, ok := res.Metrics["impute_rmse"]
	base := res.Metrics["baseline_rmse"]
	if !ok {
		t.Fatal("no impute_rmse metric")
	}
	// With separated unit-covariance clusters, cluster-conditional
	// imputation must clearly beat mean imputation.
	if rmse >= base*0.6 {
		t.Errorf("impute rmse %v not clearly below baseline %v", rmse, base)
	}
}

func TestRunSparkImputes(t *testing.T) {
	res, err := RunSpark(smallCluster(2), smallConfig())
	checkResult(t, res, err, 12)
}

func TestRunSimSQLImputes(t *testing.T) {
	res, err := RunSimSQL(smallCluster(2), smallConfig())
	checkResult(t, res, err, 12)
}

func TestRunGraphLabImputes(t *testing.T) {
	res, err := RunGraphLab(smallCluster(2), smallConfig())
	checkResult(t, res, err, 12)
}

func TestRunGiraphImputes(t *testing.T) {
	res, err := RunGiraph(smallCluster(2), smallConfig())
	checkResult(t, res, err, 12)
}

func TestGiraphFailsAtHundredMachines(t *testing.T) {
	// Figure 5: Giraph runs at 5 and 20 machines but fails at 100.
	run := func(machines int) error {
		c := sim.DefaultConfig(machines)
		c.Scale = 100_000
		cfg := Config{K: 10, D: 10, PointsPerMachine: 10_000_000, Iterations: 1, Seed: 77}
		_, err := RunGiraph(sim.New(c), cfg)
		return err
	}
	if err := run(5); err != nil {
		t.Errorf("5 machines should run: %v", err)
	}
	if err := run(100); !sim.IsOOM(err) {
		t.Errorf("100 machines should OOM, got %v", err)
	}
}

func TestGraphLabRunsAtScale(t *testing.T) {
	// Figure 5: GraphLab's super-vertex imputation runs even on the
	// largest cluster (clamped to 96 machines).
	c := sim.DefaultConfig(100)
	c.Scale = 200_000
	cfg := Config{K: 10, D: 10, PointsPerMachine: 10_000_000, Iterations: 1, Seed: 77, SVPerMachine: 80}
	res, err := RunGraphLab(sim.New(c), cfg)
	if err != nil {
		t.Fatalf("GraphLab at 100 machines should run: %v", err)
	}
	if len(res.Notes) == 0 {
		t.Error("expected the 96-machine boot-clamp note")
	}
}

func TestSparkSlowerThanItsGMM(t *testing.T) {
	// Figure 5 vs Figure 1(a): the cache-defeating data rewrite makes
	// Spark's imputation notably slower per iteration than other
	// platforms' — here we check Spark is the slowest of the four on
	// identical data, the qualitative inversion the paper highlights.
	cfg := Config{K: 5, D: 5, PointsPerMachine: 1_000_000, Iterations: 2, Seed: 77, SVPerMachine: 8}
	spark, err := RunSpark(smallCluster(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := RunGraphLab(smallCluster(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gir, err := RunGiraph(smallCluster(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(spark.AvgIterSec() > gl.AvgIterSec() && spark.AvgIterSec() > gir.AvgIterSec()) {
		t.Errorf("Spark (%v) should be slower than GraphLab (%v) and Giraph (%v)",
			spark.AvgIterSec(), gl.AvgIterSec(), gir.AvgIterSec())
	}
}

// A point whose covariance block is not positive definite keeps its
// values; every engine must count such updates and say so in a note.
func TestFailedUpdatesAreNoted(t *testing.T) {
	orig := planFor
	t.Cleanup(func() { planFor = orig })
	planFor = func(p *gmm.Params) (*impute.Plan, error) {
		sigma := append([]*linalg.Mat(nil), p.Sigma...)
		sigma[0] = linalg.Eye(p.D).ScaleInPlace(-1)
		return impute.NewPlan(p.Pi, p.Mu, sigma)
	}
	cfg := Config{K: 3, D: 6, PointsPerMachine: 270_000, Iterations: 2, Seed: 77, SVPerMachine: 4}
	ports := []struct {
		name string
		run  func(*sim.Cluster, Config) (*task.Result, error)
	}{
		{"giraph", RunGiraph},
		{"graphlab", RunGraphLab},
		{"spark", RunSpark},
		{"simsql", RunSimSQL},
	}
	for _, p := range ports {
		res, err := p.run(smallCluster(2), cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		noted := false
		for _, n := range res.Notes {
			noted = noted || strings.Contains(n, "imputation updates failed")
		}
		if !noted {
			t.Errorf("%s: no note of the failed updates in %q", p.name, res.Notes)
		}
	}
}
