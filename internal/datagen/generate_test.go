package datagen

import (
	"path/filepath"
	"reflect"
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
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

func TestMachineShare(t *testing.T) {
	imbal := ScenarioSpec("imbal-8x")
	if imbal == nil {
		t.Fatal("imbal-8x not registered")
	}
	var total int
	var counts []int
	const machines, base = 5, 1000
	for m := 0; m < machines; m++ {
		c := MachineShare(imbal, m, machines, base)
		counts = append(counts, c)
		total += c
	}
	if total != machines*base {
		t.Fatalf("shares sum to %d, want %d: %v", total, machines*base, counts)
	}
	if ratio := float64(counts[machines-1]) / float64(counts[0]); ratio < 7 || ratio > 9 {
		t.Fatalf("share ratio = %.2f, want ~8: %v", ratio, counts)
	}
	// nil spec and balanced scenarios are identity.
	if got := MachineShare(nil, 3, 5, base); got != base {
		t.Fatalf("nil spec share = %d", got)
	}
	if got := MachineShare(ScenarioSpec("skew-heavy"), 3, 5, base); got != base {
		t.Fatalf("balanced scenario share = %d", got)
	}
}

// TestMachineGMMSharedMixture checks the distributed-generation contract:
// every machine derives the same planted mixture from the shared root.
func TestMachineGMMSharedMixture(t *testing.T) {
	spec := ScenarioSpec("skew-heavy")
	draw := func(machine int) []linalg.Vec {
		next := OpenMachineGMM(spec, randgen.New(99), machine, 10, 10)
		out := make([]linalg.Vec, 50)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	p0, p1 := draw(0), draw(1)
	if len(p0) != 50 || len(p1) != 50 {
		t.Fatalf("points: %d, %d", len(p0), len(p1))
	}
	if reflect.DeepEqual(p0, p1) {
		t.Error("machines 0 and 1 generated identical points (streams not split)")
	}
	// Same machine, fresh root: byte-identical.
	again := draw(0)
	if !reflect.DeepEqual(p0, again) {
		t.Error("machine generation not reproducible")
	}
}

func TestMachineCorpusShapes(t *testing.T) {
	spec := ScenarioSpec("skew-heavy")
	docs := MachineCorpus(spec, randgen.New(7), 200, 1000, 100, 8)
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
