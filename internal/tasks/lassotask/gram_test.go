package lassotask

import (
	"fmt"
	"math"
	"testing"

	"mlbench/internal/dataflow"
	"mlbench/internal/linalg"
	"mlbench/internal/models/lasso"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/workload"
)

// denseStats is the fold the engines ran when every sender shipped a
// dense P×P partial: the oracle the row fold must reproduce bit for bit.
type denseStats struct {
	xtx    *linalg.Mat
	xty    linalg.Vec
	colSum linalg.Vec
	ySum   float64
	n      float64
}

// denseGram is one sender's dense partial, summed from zero.
func denseGram(d *workload.RegressionData, p int) denseStats {
	g := denseStats{xtx: linalg.NewMat(p, p), xty: linalg.NewVec(p), colSum: linalg.NewVec(p)}
	g.xtx.AddGram(d.X)
	for i, x := range d.X {
		for j := range x {
			g.xty[j] += x[j] * d.Y[i]
			g.colSum[j] += x[j]
		}
		g.ySum += d.Y[i]
	}
	g.n = float64(len(d.X))
	return g
}

func (g *denseStats) merge(o denseStats) {
	g.xtx.AddInPlace(o.xtx)
	o.xty.AddTo(g.xty)
	o.colSum.AddTo(g.colSum)
	g.ySum += o.ySum
	g.n += o.n
}

// denseFold sums the senders' dense partials in order.
func denseFold(p int, senders []*workload.RegressionData) denseStats {
	acc := denseGram(&workload.RegressionData{}, p)
	for _, d := range senders {
		acc.merge(denseGram(d, p))
	}
	return acc
}

// slot returns core slot s of a machine's data, as super vertices and
// Spark partitions slice it.
func slot(d *workload.RegressionData, s, cores int) *workload.RegressionData {
	lo, hi := s*len(d.X)/cores, (s+1)*len(d.X)/cores
	return &workload.RegressionData{X: d.X[lo:hi], Y: d.Y[lo:hi]}
}

// TestGramFoldMatchesDense checks every engine that folds senders' rows
// against the dense-partial fold in that engine's sender order: Giraph
// super vertices in delivery order (machine, then core slot; empty slots
// send nothing), Spark partitions in partition order (partition p holds
// slot p / machines of machine p % machines), and SimSQL and GraphLab
// machines in machine order. One core slot per machine gives senders of
// 1, 3 and 5 rows; four give senders of 0, 1 and 2 rows.
func TestGramFoldMatchesDense(t *testing.T) {
	const machines, p = 3, 13
	for _, workers := range []int{1, 4} {
		for _, cores := range []int{1, 4} {
			for _, rows := range []int{1, 3, 5} {
				c := sim.DefaultConfig(machines)
				c.Cores, c.Scale, c.HostWorkers = cores, 1000, workers
				cfg := Config{P: p, PointsPerMachine: rows * 1000, Seed: 5}.withDefaults()
				machineData := make([]*workload.RegressionData, machines)
				for mc := range machineData {
					machineData[mc] = genMachineData(sim.New(c), cfg, mc)
				}
				var blocks, parts []*workload.RegressionData
				for _, d := range machineData {
					for s := 0; s < cores; s++ {
						if b := slot(d, s, cores); len(b.X) > 0 {
							blocks = append(blocks, b)
						}
					}
				}
				for q := 0; q < machines*cores; q++ {
					parts = append(parts, slot(machineData[q%machines], q/machines, cores))
				}
				engines := []struct {
					name    string
					senders []*workload.RegressionData
					run     func(cl *sim.Cluster) (gramAcc, error)
				}{
					{"giraph-sv", blocks, func(cl *sim.Cluster) (gramAcc, error) {
						svCfg := cfg
						svCfg.SuperVertex = true
						model := &bspModelVtx{state: lasso.Init(p), g: newGram(p)}
						g, err := loadGiraph(cl, svCfg, model)
						if err == nil {
							err = giraphGram(g, machines, svCfg, model)
						}
						return model.g, err
					}},
					{"spark", parts, func(cl *sim.Cluster) (gramAcc, error) {
						return sparkGram(sparkData(dataflow.NewContext(cl, sim.ProfilePython), cl, cfg), cfg)
					}},
					{"simsql", machineData, func(cl *sim.Cluster) (gramAcc, error) {
						return simsqlGram(cl, cfg, machineData)
					}},
					{"graphlab", machineData, func(cl *sim.Cluster) (gramAcc, error) {
						g, _, md, err := loadGraphLab(cl, cfg, randgen.New(1))
						if err != nil {
							return gramAcc{}, err
						}
						return graphlabGram(g, cfg, md)
					}},
				}
				for _, e := range engines {
					t.Run(fmt.Sprintf("%s/workers=%d/cores=%d/rows=%d", e.name, workers, cores, rows), func(t *testing.T) {
						got, err := e.run(sim.New(c))
						if err != nil {
							t.Fatal(err)
						}
						got.xtx.MirrorLower()
						want := denseFold(p, e.senders)
						sameBits(t, "xtx", got.xtx.Data, want.xtx.Data)
						sameBits(t, "xty", got.xty, want.xty)
						sameBits(t, "colSum", got.colSum, want.colSum)
						sameBits(t, "ySum, n", []float64{got.ySum, got.n}, []float64{want.ySum, want.n})
					})
				}
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, dense fold %v", what, i, got[i], want[i])
		}
	}
}
