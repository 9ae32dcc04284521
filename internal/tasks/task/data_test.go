package task

import (
	"reflect"
	"testing"
	"time"

	"mlbench/internal/linalg"
	"mlbench/internal/sim"
	"mlbench/internal/workload"
)

// cluster returns a cluster of the given size at scale 1, so a
// per-machine count is also the real element count.
func cluster(machines int) *sim.Cluster {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 1
	return sim.New(cfg)
}

func TestDataShares(t *testing.T) {
	const machines, base = 5, 1000
	d := NewData(cluster(machines), 1, "imbal-8x", base)
	var total int
	for m := 0; m < machines; m++ {
		total += d.count(m)
	}
	if total != machines*base {
		t.Fatalf("shares sum to %d, want %d: %v", total, machines*base, d.shares)
	}
	if ratio := float64(d.count(machines-1)) / float64(d.count(0)); ratio < 7 || ratio > 9 {
		t.Fatalf("share ratio = %.2f, want ~8: %v", ratio, d.shares)
	}
	// The paper shape and a scenario without a partition section are
	// balanced.
	for _, ds := range []string{"", "skew-heavy"} {
		d := NewData(cluster(machines), 1, ds, base)
		for m := 0; m < machines; m++ {
			if c := d.count(m); c != base {
				t.Fatalf("%q: machine %d share = %d, want %d", ds, m, c, base)
			}
		}
	}
}

// TestDataSharesTenThousandMachines opens every machine's partition of
// a 10,000-machine cluster under a partition scenario, as the top column
// of the scale-out sweep does. The shares are apportioned once per run,
// in O(machines log machines); apportioning them once per machine, in
// O(machines^2), took hours at this size.
func TestDataSharesTenThousandMachines(t *testing.T) {
	const machines = 10_000
	cl := cluster(machines)
	for _, base := range []int{2, 100} {
		start := time.Now()
		d := NewData(cl, 1, "imbal-8x", base)
		total := 0
		for m := 0; m < machines; m++ {
			n := d.Mixture(m, 2, 2).Len()
			if n < 1 {
				t.Fatalf("base %d: machine %d is empty", base, m)
			}
			total += n
		}
		if total != base*machines {
			t.Fatalf("base %d: shares sum to %d, want %d", base, total, base*machines)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("base %d: opening %d partitions took %v", base, machines, elapsed)
		}
	}
}

// TestDataMixtureShared checks the distributed-generation contract:
// every machine derives the same planted mixture from the shared root
// and streams its own points.
func TestDataMixtureShared(t *testing.T) {
	for _, ds := range []string{"", "skew-heavy"} {
		d := NewData(cluster(3), 99, ds, 50)
		p0, p1 := d.Mixture(0, 10, 10).Materialize(), d.Mixture(1, 10, 10).Materialize()
		if len(p0) != 50 || len(p1) != 50 {
			t.Fatalf("%q: points: %d, %d", ds, len(p0), len(p1))
		}
		if reflect.DeepEqual(p0, p1) {
			t.Errorf("%q: machines 0 and 1 generated identical points (streams not split)", ds)
		}
		// A second source over the same machine regenerates its points.
		if again := d.Mixture(0, 10, 10).Materialize(); !reflect.DeepEqual(p0, again) {
			t.Errorf("%q: machine generation not reproducible", ds)
		}
	}
}

func TestDataCorpusShapes(t *testing.T) {
	d := NewData(cluster(2), 7, "skew-heavy", 200)
	docs := d.Corpus(1, workload.CorpusConfig{Vocab: 1000, AvgLen: 100, Topics: 8}).Materialize()
	if len(docs) != 200 {
		t.Fatalf("docs = %d", len(docs))
	}
	for _, doc := range docs {
		if len(doc) < 2 {
			t.Fatalf("degenerate doc of length %d", len(doc))
		}
		for _, w := range doc {
			if w < 0 || w >= 1000 {
				t.Fatalf("word %d out of vocabulary", w)
			}
		}
	}
}

// TestDataRegressionSharedTruth checks that machines share the planted
// coefficients and draw their own observations.
func TestDataRegressionSharedTruth(t *testing.T) {
	beta := linalg.Vec{0, 2, 0, -3}
	d := NewData(cluster(2), 5, "skew-light", 40)
	a, b := d.Regression(0, beta), d.Regression(1, beta)
	if len(a.X) != 40 || len(b.X) != 40 || !reflect.DeepEqual(a.TrueBeta, b.TrueBeta) {
		t.Fatalf("sizes %d, %d; truths %v, %v", len(a.X), len(b.X), a.TrueBeta, b.TrueBeta)
	}
	if reflect.DeepEqual(a.X, b.X) {
		t.Error("machines 0 and 1 drew identical regressors")
	}
}
