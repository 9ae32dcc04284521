package datagen

import (
	"bufio"
	"cmp"
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

// Per-section RNG stream salts: each section derives its own root from
// spec.Seed so adding or removing a section never perturbs the others.
const (
	saltCorpus     = 0xC0F9_05DA_7A6E_0001
	saltGMM        = 0xC0F9_05DA_7A6E_0002
	saltRegression = 0xC0F9_05DA_7A6E_0003
	saltGraph      = 0xC0F9_05DA_7A6E_0004
)

// Dataset is one generated corpus with its canonical fingerprint.
type Dataset struct {
	Spec DatasetSpec `json:"spec"`

	Docs       [][]int                  `json:"docs,omitempty"`
	GMM        *workload.GMMData        `json:"gmm,omitempty"`
	Regression *workload.RegressionData `json:"regression,omitempty"`
	Graph      *Graph                   `json:"graph,omitempty"`
	// PartitionCounts is the per-machine share of the primary section's
	// items (corpus documents, else graph vertices, else GMM points, else
	// regression observations) under the partition spec.
	PartitionCounts []int `json:"partition_counts,omitempty"`

	// Fingerprint is the SHA-256 of the canonical encoding of every
	// generated section, in shard order — the dataset identity the unit
	// tests and the datagen-smoke CI job compare across worker counts.
	Fingerprint string `json:"fingerprint"`
}

// Generate materializes the spec with the given number of concurrent
// workers. Work is cut into spec.Shards fixed shards, each generated from
// its own Split-derived RNG stream; workers only decide how many shards
// run at once, so the result — and its fingerprint — is byte-identical at
// any worker count.
func Generate(spec DatasetSpec, workers int) (*Dataset, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	if workers < 1 {
		workers = 1
	}
	d := &Dataset{Spec: spec}

	// Shard plans: every job is (deterministic input RNG) -> (slot in a
	// pre-sized slice), so execution order cannot matter. Shard RNGs are
	// derived serially here — Split reads the parent's current state.
	// Finishers concatenate the shard slots in order after the barrier.
	var jobs, finishers []func()

	if c := spec.Corpus; c != nil {
		counts := shardCounts(c.Docs, spec.Shards)
		root := randgen.New(spec.Seed ^ saltCorpus)
		shardDocs := make([][][]int, len(counts))
		for i, n := range counts {
			i, n, rng := i, n, root.Split(uint64(i))
			jobs = append(jobs, func() {
				shardDocs[i] = workload.GenCorpus(rng, c.Shape(workload.CorpusConfig{
					Docs: n, Vocab: c.Vocab, AvgLen: int(math.Round(c.DocLen.Mean)), Topics: c.Topics,
				}))
			})
		}
		finishers = append(finishers, func() {
			for _, s := range shardDocs {
				d.Docs = append(d.Docs, s...)
			}
		})
	}

	if g := spec.GMM; g != nil {
		counts := shardCounts(g.Points, spec.Shards)
		root := randgen.New(spec.Seed ^ saltGMM)
		mix := g.Plant(root, g.Clusters, g.Dim)
		shardData := make([]*workload.GMMData, len(counts))
		for i, n := range counts {
			i, n, rng := i, n, root.Split(uint64(i))
			jobs = append(jobs, func() {
				shardData[i] = mix.Gen(rng, n)
			})
		}
		finishers = append(finishers, func() {
			d.GMM = &workload.GMMData{Mu: mix.Mu}
			for _, s := range shardData {
				d.GMM.Points = append(d.GMM.Points, s.Points...)
				d.GMM.Labels = append(d.GMM.Labels, s.Labels...)
			}
		})
	}

	if r := spec.Regression; r != nil {
		counts := shardCounts(r.Points, spec.Shards)
		root := randgen.New(spec.Seed ^ saltRegression)
		beta := workload.SparseBeta(root, r.Dim, r.Sparsity)
		shardData := make([]*workload.RegressionData, len(counts))
		for i, n := range counts {
			i, n, rng := i, n, root.Split(uint64(i))
			jobs = append(jobs, func() {
				shardData[i] = workload.GenRegression(rng, beta, n, r.Shape())
			})
		}
		finishers = append(finishers, func() {
			d.Regression = &workload.RegressionData{TrueBeta: beta}
			for _, s := range shardData {
				d.Regression.X = append(d.Regression.X, s.X...)
				d.Regression.Y = append(d.Regression.Y, s.Y...)
			}
		})
	}

	if g := spec.Graph; g != nil {
		counts := shardCounts(g.Vertices, spec.Shards)
		root := randgen.New(spec.Seed ^ saltGraph)
		shardAdj := make([][][]int32, len(counts))
		for i, n := range counts {
			i, n, rng := i, n, root.Split(uint64(i))
			jobs = append(jobs, func() {
				shardAdj[i] = genGraphShard(rng, *g, n)
			})
		}
		finishers = append(finishers, func() {
			d.Graph = &Graph{Vertices: g.Vertices}
			for _, s := range shardAdj {
				d.Graph.Adj = append(d.Graph.Adj, s...)
			}
		})
	}

	runJobs(jobs, workers)
	for _, fin := range finishers {
		fin()
	}
	d.finish()
	return d, nil
}

// finish computes the partition counts and fingerprint once all sections
// are assembled.
func (d *Dataset) finish() {
	if p := d.Spec.Partition; p != nil {
		total := 0
		switch {
		case d.Docs != nil:
			total = len(d.Docs)
		case d.Graph != nil:
			total = d.Graph.Vertices
		case d.GMM != nil:
			total = len(d.GMM.Points)
		case d.Regression != nil:
			total = len(d.Regression.X)
		}
		d.PartitionCounts = PartitionCounts(total, p.Machines, p.Imbalance)
	}
	d.Fingerprint = d.computeFingerprint()
}

// runJobs executes the jobs on `workers` goroutines. Each job writes only
// its own pre-allocated slot, so no synchronization beyond the WaitGroup
// is needed.
func runJobs(jobs []func(), workers int) {
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			j()
		}
		return
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				j()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// shardCounts cuts total items into `shards` near-equal parts (the first
// total%shards shards get one extra item).
func shardCounts(total, shards int) []int {
	counts := make([]int, shards)
	base, extra := total/shards, total%shards
	for i := range counts {
		counts[i] = base
		if i < extra {
			counts[i]++
		}
	}
	return counts
}

// PartitionCounts apportions total items over machines with a linear
// load ramp whose max/min ratio is `imbalance`, using largest-remainder
// rounding so the counts sum exactly to total: the items left after
// every machine takes its floor go one each to the largest remainders,
// the lower index first among equal ones. When total >= machines, every
// machine gets at least one item (engines choke on empty partitions),
// taken from the fullest machine, again the lower index first. Both
// steps sort or heap the machines once, so the whole apportionment is
// O(machines log machines).
func PartitionCounts(total, machines int, imbalance float64) []int {
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
	if assigned < total {
		order := make([]int, machines)
		for m := range order {
			order[m] = m
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(fracs[b], fracs[a]) })
		for i := 0; assigned < total; i++ {
			counts[order[i%machines]]++
			assigned++
		}
	}
	if total >= machines && slices.Contains(counts, 0) {
		// While some machine is empty, the fullest holds at least two
		// items, so it never empties and the heap needs no other entry.
		h := &fullest{counts: counts}
		for m, c := range counts {
			if c > 0 {
				h.idx = append(h.idx, m)
			}
		}
		heap.Init(h)
		for m := range counts {
			if counts[m] == 0 {
				big := h.idx[0]
				counts[m], counts[big] = 1, counts[big]-1
				heap.Fix(h, 0)
			}
		}
	}
	return counts
}

// fullest is a max-heap of machine indices by count, the lower index
// first among equal counts.
type fullest struct {
	counts []int
	idx    []int
}

func (h *fullest) Len() int { return len(h.idx) }
func (h *fullest) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	return h.counts[a] > h.counts[b] || h.counts[a] == h.counts[b] && a < b
}
func (h *fullest) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *fullest) Push(any)      {}
func (h *fullest) Pop() any      { return nil }

// fpWriter streams the canonical dataset encoding into a hash: section
// labels, then fixed-width little-endian values in generation order.
type fpWriter struct {
	w *bufio.Writer
}

func (f fpWriter) label(s string) {
	f.u64(uint64(len(s)))
	f.w.WriteString(s)
}
func (f fpWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.w.Write(b[:])
}
func (f fpWriter) i(v int)       { f.u64(uint64(int64(v))) }
func (f fpWriter) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f fpWriter) vec(v []float64) {
	f.i(len(v))
	for _, x := range v {
		f.f64(x)
	}
}

// computeFingerprint hashes the canonical encoding of every section.
func (d *Dataset) computeFingerprint() string {
	h := sha256.New()
	f := fpWriter{w: bufio.NewWriterSize(h, 1<<16)}
	writeFingerprint(f, d)
	f.w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

func writeFingerprint(f fpWriter, d *Dataset) {
	f.label("mlbench-dataset-v1")
	f.label(d.Spec.Name)
	f.u64(d.Spec.Seed)
	if d.Docs != nil {
		f.label("corpus")
		f.i(len(d.Docs))
		for _, doc := range d.Docs {
			f.i(len(doc))
			for _, w := range doc {
				f.i(w)
			}
		}
	}
	if g := d.GMM; g != nil {
		f.label("gmm")
		f.i(len(g.Mu))
		for _, mu := range g.Mu {
			f.vec(mu)
		}
		f.i(len(g.Points))
		for i, x := range g.Points {
			f.vec(x)
			f.i(g.Labels[i])
		}
	}
	if r := d.Regression; r != nil {
		f.label("regression")
		f.vec(r.TrueBeta)
		f.i(len(r.X))
		for i, x := range r.X {
			f.vec(x)
			f.f64(r.Y[i])
		}
	}
	if g := d.Graph; g != nil {
		f.label("graph")
		f.i(g.Vertices)
		f.i(len(g.Adj))
		for _, targets := range g.Adj {
			f.i(len(targets))
			for _, t := range targets {
				f.u64(uint64(t))
			}
		}
	}
	if d.PartitionCounts != nil {
		f.label("partition")
		f.i(len(d.PartitionCounts))
		for _, c := range d.PartitionCounts {
			f.i(c)
		}
	}
}

// TokenCount is the corpus token total (for gen's summary output).
func (d *Dataset) TokenCount() int {
	var n int
	for _, doc := range d.Docs {
		n += len(doc)
	}
	return n
}

// EdgeCount is the graph edge total (for gen's summary output).
func (d *Dataset) EdgeCount() int {
	if d.Graph == nil {
		return 0
	}
	var n int
	for _, t := range d.Graph.Adj {
		n += len(t)
	}
	return n
}

// WriteJSON dumps the full dataset as JSON (the gen -out artifact).
func (d *Dataset) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(d)
}
