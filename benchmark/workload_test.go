package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// Every shipped workload file passes start-up validation: each spec
// parses strictly, validates, and names a runnable cell.
func TestShippedWorkloadsValidate(t *testing.T) {
	for _, name := range workloadNames {
		w, err := loadWorkload(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (BENCHMARK.json carries it)", name)
		}
	}
	if _, err := loadWorkload("no-such"); err == nil || !strings.Contains(err.Error(), "batch-kernels") {
		t.Errorf("unknown workload error should list the workloads, got %v", err)
	}
}

const validBatch = `{"name":"t","kind":"batch","why":"w","cells":[{"spec":{"figure":"fig2","row":"Giraph (Super Vertex)","col":"5m"},"fail":false}]}`

// A renamed label fails loudly, with the valid labels, before anything
// is timed.
func TestWorkloadValidationNamesValidLabels(t *testing.T) {
	if _, err := parseWorkload("t", []byte(validBatch)); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	for _, c := range []struct{ name, edit, with, wantInErr string }{
		{"renamed row", `Giraph (Super Vertex)`, `Giraph (SuperVertex)`, "valid rows: "},
		{"renamed col", `"col":"5m"`, `"col":"5 machines"`, "valid columns: 5m"},
		{"renamed figure", `"figure":"fig2"`, `"figure":"figure2"`, "valid figures: "},
		{"unknown knob", `"fail":false`, `"fail":false,"reps":3`, "unknown field"},
		{"unknown spec knob", `"col":"5m"`, `"col":"5m","itres":2`, "unknown field"},
		{"whole figure", `,"row":"Giraph (Super Vertex)","col":"5m"`, ``, "needs row and col"},
		{"seed in file", `"col":"5m"`, `"col":"5m","seed":7`, "--seed"},
		{"wrong name", `"name":"t"`, `"name":"u"`, "names itself"},
		{"serve without plan", `"kind":"batch"`, `"kind":"serve"`, "serve plan"},
		{"plan without rounds", `"kind":"batch"`, `"kind":"serve","serve":{"closed_requests":4,"open_rps":1,"open_seconds":1,"limit_ms":500}`, "closed_rounds"},
	} {
		data := strings.Replace(validBatch, c.edit, c.with, 1)
		_, err := parseWorkload("t", []byte(data))
		if err == nil || !strings.Contains(err.Error(), c.wantInErr) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.wantInErr)
		}
	}
}

func streamDigest(reqs []Request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d %d %s\n", r.Key, r.Cell, r.Spec)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// The request streams and the arrival schedule are byte-stable for a
// seed: these digests change only when the workload files or the
// generators do, which is a change of benchmark and needs a new baseline.
func TestRequestStreamsByteStable(t *testing.T) {
	for _, c := range []struct {
		workload string
		seed     uint64
		n        int
		want     string
	}{
		{"serve-cold", 1, 300, goldenCold1},
		{"serve-zipf", 1, 800, goldenZipf1},
	} {
		w, err := loadWorkload(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		a, b := w.requestStream(c.seed, c.n), w.requestStream(c.seed, c.n)
		if streamDigest(a) != streamDigest(b) {
			t.Errorf("%s: two generations for seed %d differ", c.workload, c.seed)
		}
		if got := streamDigest(a); got != c.want {
			t.Errorf("%s seed %d: stream digest %s, golden %s", c.workload, c.seed, got, c.want)
		}
		if streamDigest(w.requestStream(c.seed+1, c.n)) == streamDigest(a) {
			t.Errorf("%s: seed %d and %d give the same stream", c.workload, c.seed, c.seed+1)
		}
		// A longer stream extends a shorter one: phases cut one stream.
		if streamDigest(w.requestStream(c.seed, c.n+50)[:c.n]) != streamDigest(a) {
			t.Errorf("%s: a longer stream does not start with the shorter one", c.workload)
		}
	}
}

func TestColdStreamSharesNothingAndKeepsTheMix(t *testing.T) {
	w, err := loadWorkload("serve-cold")
	if err != nil {
		t.Fatal(err)
	}
	nc := len(w.Cells)
	reqs := w.requestStream(7, 10*nc)
	specs := map[string]bool{}
	for i, r := range reqs {
		if r.Key != i {
			t.Fatalf("request %d has key %d: every request must have its own", i, r.Key)
		}
		if specs[string(r.Spec)] {
			t.Fatalf("request %d repeats an earlier spec", i)
		}
		specs[string(r.Spec)] = true
	}
	// Every block of len(cells) requests holds each cell exactly once.
	for b := 0; b < 10; b++ {
		seen := map[int]bool{}
		for _, r := range reqs[b*nc : (b+1)*nc] {
			seen[r.Cell] = true
		}
		if len(seen) != nc {
			t.Errorf("block %d holds %d distinct cells, want %d", b, len(seen), nc)
		}
	}
}

func TestZipfStreamSharesKeys(t *testing.T) {
	w, err := loadWorkload("serve-zipf")
	if err != nil {
		t.Fatal(err)
	}
	reqs := w.requestStream(7, 2000)
	count := map[int]int{}
	specOf := map[int]string{}
	for _, r := range reqs {
		if r.Key < 0 || r.Key >= w.Serve.Keys {
			t.Fatalf("key %d outside [0, %d)", r.Key, w.Serve.Keys)
		}
		if r.Cell != r.Key%len(w.Cells) {
			t.Fatalf("key %d maps to cell %d, want %d", r.Key, r.Cell, r.Key%len(w.Cells))
		}
		if s, ok := specOf[r.Key]; ok && s != string(r.Spec) {
			t.Fatalf("key %d has two different specs", r.Key)
		}
		specOf[r.Key] = string(r.Spec)
		count[r.Key]++
	}
	// Zipf(1.1) over 256 keys puts about 17% of draws on rank 0 and more
	// distinct keys in play than the 64-entry cache holds.
	if share := float64(count[0]) / float64(len(reqs)); share < 0.12 || share > 0.22 {
		t.Errorf("rank 0 drew %.3f of requests, want about 0.17", share)
	}
	if len(count) <= 64 {
		t.Errorf("%d distinct keys: the working set must exceed the 64-entry cache", len(count))
	}
}

func TestDueTimesAndScaling(t *testing.T) {
	due := dueTimes(20, 5)
	want := []float64{0, 0.05, 0.1, 0.15, 0.2}
	for i := range want {
		if diff := due[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want[i])
		}
	}
	if got := scaled(180, referenceSeconds); got != 180 {
		t.Errorf("scaled at the reference = %d, want 180", got)
	}
	if got := scaled(180, referenceSeconds/2.0); got != 90 {
		t.Errorf("scaled at half = %d, want 90", got)
	}
	if got := scaled(3, 0.01); got != 1 {
		t.Errorf("scaled never goes below 1, got %d", got)
	}
}

func TestSpecSeedNeverZero(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for id := 0; id < 500; id++ {
			s := specSeed(seed, id)
			if s == 0 {
				t.Fatalf("specSeed(%d, %d) = 0, which Normalize reads as the default seed", seed, id)
			}
			if seen[s] {
				t.Fatalf("specSeed(%d, %d) repeats an earlier seed", seed, id)
			}
			seen[s] = true
		}
	}
}

func TestCheckOutcome(t *testing.T) {
	w, err := parseWorkload("t", []byte(validBatch))
	if err != nil {
		t.Fatal(err)
	}
	cell := w.Cells[0]
	ok := "fig2 — title\n" + strings.Repeat(" ", 28) + "5m\nGiraph (Super Vertex)       0:48 (2:21) [paper 0:58 (1:14)]\n\nagreement\n"
	if err := checkOutcome(cell, []byte(ok)); err != nil {
		t.Errorf("timed cell rejected: %v", err)
	}
	failed := strings.Replace(ok, "0:48 (2:21)", "Fail", 1)
	if err := checkOutcome(cell, []byte(failed)); err == nil {
		t.Error("a Fail where the file records fail=false must be an error")
	}
	cell.Fail = true
	if err := checkOutcome(cell, []byte(failed)); err != nil {
		t.Errorf("recorded Fail rejected: %v", err)
	}
	// "[paper Fail]" beside a timed value is the paper's outcome, not ours.
	paperFail := strings.Replace(ok, "[paper 0:58 (1:14)]", "[paper Fail]", 1)
	if err := checkOutcome(cell, []byte(paperFail)); err == nil {
		t.Error("a timed value where the file records fail=true must be an error")
	}
	if err := checkOutcome(cell, []byte("run: something broke\n")); err == nil {
		t.Error("output that is not the cell's table must be an error")
	}
}
