package datagen

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestGenerateWorkerIdentity is the acceptance property of the whole
// package: the same DatasetSpec and seed produce a byte-identical corpus
// — equal SHA-256 fingerprint and deeply equal sections — at 1 vs 8
// generator workers, and repeat runs reproduce it. The spec under test is
// the checked-in one the datagen-smoke CI job uses.
func TestGenerateWorkerIdentity(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "datasets", "smoke.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := Generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Fingerprint == "" || len(d1.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q is not a SHA-256 hex digest", d1.Fingerprint)
	}
	if d1.Fingerprint != d8.Fingerprint {
		t.Errorf("fingerprint depends on workers: %s vs %s", d1.Fingerprint, d8.Fingerprint)
	}
	if d1.Fingerprint != again.Fingerprint {
		t.Errorf("fingerprint not reproducible: %s vs %s", d1.Fingerprint, again.Fingerprint)
	}
	if !reflect.DeepEqual(d1.Docs, d8.Docs) {
		t.Error("corpus differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(d1.GMM, d8.GMM) {
		t.Error("gmm section differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(d1.Regression, d8.Regression) {
		t.Error("regression section differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(d1.Graph, d8.Graph) {
		t.Error("graph section differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(d1.PartitionCounts, d8.PartitionCounts) {
		t.Error("partition counts differ between 1 and 8 workers")
	}

	// Sections are sized as declared.
	if len(d1.Docs) != 400 || len(d1.GMM.Points) != 500 ||
		len(d1.Regression.X) != 300 || len(d1.Graph.Adj) != 500 {
		t.Errorf("section sizes: docs %d, gmm %d, reg %d, graph %d",
			len(d1.Docs), len(d1.GMM.Points), len(d1.Regression.X), len(d1.Graph.Adj))
	}

	// A different seed is a different dataset.
	spec2 := spec
	spec2.Seed = 43
	other, err := Generate(spec2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint == d1.Fingerprint {
		t.Error("fingerprint ignores the seed")
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	if _, err := Generate(DatasetSpec{Name: ""}, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestShardCounts(t *testing.T) {
	got := shardCounts(10, 4)
	if want := []int{3, 3, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shardCounts(10, 4) = %v, want %v", got, want)
	}
	got = shardCounts(3, 8)
	if want := []int{1, 1, 1, 0, 0, 0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shardCounts(3, 8) = %v, want %v", got, want)
	}
}

func TestPartitionCounts(t *testing.T) {
	// Balanced: exact split.
	if got := PartitionCounts(100, 4, 1); !reflect.DeepEqual(got, []int{25, 25, 25, 25}) {
		t.Fatalf("balanced: %v", got)
	}
	// Imbalanced: sums to total, monotone, ~ratio between ends.
	got := PartitionCounts(9000, 5, 8)
	var sum int
	for m := 1; m < len(got); m++ {
		if got[m] < got[m-1] {
			t.Fatalf("counts not monotone: %v", got)
		}
	}
	for _, c := range got {
		sum += c
	}
	if sum != 9000 {
		t.Fatalf("counts sum to %d, want 9000: %v", sum, got)
	}
	if ratio := float64(got[4]) / float64(got[0]); ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("max/min ratio = %.2f, want ~8: %v", ratio, got)
	}
	// Tiny totals: no machine starves when total >= machines.
	got = PartitionCounts(5, 5, 8)
	for _, c := range got {
		if c < 1 {
			t.Fatalf("starved machine: %v", got)
		}
	}
	// One machine takes everything.
	if got := PartitionCounts(7, 1, 3); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("single machine: %v", got)
	}
}

// partitionCountsQuadratic is PartitionCounts as it was first written,
// with an O(machines) scan per remainder item and per empty machine: the
// reference the O(machines log machines) version must match exactly.
func partitionCountsQuadratic(total, machines int, imbalance float64) []int {
	counts := make([]int, machines)
	if machines == 1 || total == 0 {
		if machines == 1 {
			counts[0] = total
		}
		return counts
	}
	weights := make([]float64, machines)
	var sum float64
	for m := range weights {
		weights[m] = 1 + (imbalance-1)*float64(m)/float64(machines-1)
		sum += weights[m]
	}
	fracs := make([]float64, machines)
	assigned := 0
	for m := range counts {
		q := float64(total) * weights[m] / sum
		counts[m] = int(q)
		fracs[m] = q - float64(counts[m])
		assigned += counts[m]
	}
	for assigned < total {
		best := 0
		for m := 1; m < machines; m++ {
			if fracs[m] > fracs[best] {
				best = m
			}
		}
		counts[best]++
		fracs[best] = -1
		assigned++
	}
	if total >= machines {
		for m := range counts {
			if counts[m] == 0 {
				big := 0
				for j := 1; j < machines; j++ {
					if counts[j] > counts[big] {
						big = j
					}
				}
				counts[m], counts[big] = 1, counts[big]-1
			}
		}
	}
	return counts
}

// TestPartitionCountsMatchesQuadratic sweeps totals, machine counts and
// imbalances — balanced, ties between equal remainders, and ramps steep
// enough to leave machines empty before the minimum-one fix — and checks
// every count against the reference algorithm.
func TestPartitionCountsMatchesQuadratic(t *testing.T) {
	for _, machines := range []int{1, 2, 3, 5, 7, 16, 64, 257} {
		for _, base := range []int{0, 1, 2, 3, 10, 101} {
			for _, extra := range []int{0, 1, machines / 2} {
				total := base*machines + extra
				for _, imbalance := range []float64{1, 1.5, 2, 3, 8, 40, 1000} {
					got := PartitionCounts(total, machines, imbalance)
					if want := partitionCountsQuadratic(total, machines, imbalance); !reflect.DeepEqual(got, want) {
						t.Fatalf("PartitionCounts(%d, %d, %v) = %v, want %v", total, machines, imbalance, got, want)
					}
				}
			}
		}
	}
}

// TestGenerateFingerprintPinned pins the fingerprint of two specs: the
// smoke spec, which sets every shape knob off its default, and a spec
// whose every section keeps its zero shape knobs. The worker-identity
// test only compares runs with each other; this one notices a generator
// whose stream moved.
func TestGenerateFingerprintPinned(t *testing.T) {
	smoke, err := LoadSpec(filepath.Join("..", "..", "datasets", "smoke.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	zero := DatasetSpec{
		Name:       "zero-knobs",
		Corpus:     &CorpusSpec{Docs: 60, Vocab: 500, Topics: 4, DocLen: DocLenSpec{Mean: 40}},
		GMM:        &GMMSpec{Points: 200, Dim: 3, Clusters: 4},
		Regression: &RegressionSpec{Points: 80, Dim: 12},
		Graph:      &GraphSpec{Vertices: 100},
		Partition:  &PartitionSpec{},
	}
	for _, c := range []struct {
		spec DatasetSpec
		want string
	}{
		{smoke, "bf7028e56620b08b9ffbde73e7a51b486233a36ec0f276a1602f83ad00054c0d"},
		{zero, "91a00b9c81b7e0ef228a05623f1e0d9d12c4efb1a95434f4946f2d5e57ae3329"},
	} {
		d, err := Generate(c.spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		if d.Fingerprint != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.spec.Name, d.Fingerprint, c.want)
		}
	}
}
