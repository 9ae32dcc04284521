package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"mlbench/internal/bench"
	"mlbench/internal/core"
)

// The workload definitions are data, embedded so the built driver needs
// nothing but the repository's two programs at run time.
//
//go:embed workloads/*.json
var workloadFS embed.FS

// workloadNames is the benchmark's fixed workload order (BENCHMARK.json
// lists the same five).
var workloadNames = []string{"batch-kernels", "batch-engines", "batch-scale", "serve-cold", "serve-zipf"}

// referenceSeconds is the --seconds value the workload files' request
// counts and durations are written for; another value scales them.
const referenceSeconds = 20

// Workload is one benchmark/workloads/<name>.json file.
type Workload struct {
	Name string `json:"name"`
	// Kind is "batch" (one `mlbench run -spec -` child per cell, per rep)
	// or "serve" (requests against one mlbenchd).
	Kind string `json:"kind"`
	Why  string `json:"why"`
	// Cells is the batch spec list or the serve request catalogue.
	Cells []Cell     `json:"cells"`
	Serve *ServePlan `json:"serve,omitempty"`
}

// Cell is one single-cell RunSpec plus the qualitative outcome the paper
// (and this reproduction) reports for it.
type Cell struct {
	Spec json.RawMessage `json:"spec"`
	// Fail records whether the cell renders "Fail" (the platform ran out
	// of memory); a run that disagrees is a failed operation.
	Fail bool `json:"fail"`

	spec core.RunSpec
}

// ServePlan sizes a serve workload's phases at referenceSeconds.
type ServePlan struct {
	// Keys is the number of distinct (cell, seed) cache keys requests are
	// drawn from, Zipf(ZipfS)-distributed; 0 gives every request its own
	// key, so nothing is shared.
	Keys  int     `json:"keys"`
	ZipfS float64 `json:"zipf_s"`
	// PrimeRequests of the stream are sent during set-up, untimed.
	PrimeRequests int `json:"prime_requests"`
	// The closed loop runs ClosedRounds rounds of ClosedRequests requests
	// each; its metrics are the median round's, as a batch workload's are
	// the median rep's, so one stall of the host does not decide them.
	ClosedRounds   int `json:"closed_rounds"`
	ClosedRequests int `json:"closed_requests"`
	// OpenRPS x OpenSeconds is the open loop's arrival schedule.
	OpenRPS     float64 `json:"open_rps"`
	OpenSeconds float64 `json:"open_seconds"`
	// LimitMs is the latency limit behind slo_share.
	LimitMs float64 `json:"limit_ms"`
}

// loadWorkload reads and validates one embedded workload file. A renamed
// figure, row, or column label fails here, with the valid labels, rather
// than timing an error path later.
func loadWorkload(name string) (*Workload, error) {
	data, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return parseWorkload(name, data)
}

func parseWorkload(name string, data []byte) (*Workload, error) {
	var w Workload
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if w.Name != name {
		return nil, fmt.Errorf("workload %s: file names itself %q", name, w.Name)
	}
	if w.Why == "" {
		return nil, fmt.Errorf("workload %s: missing why", name)
	}
	if len(w.Cells) == 0 {
		return nil, fmt.Errorf("workload %s: no cells", name)
	}
	switch w.Kind {
	case "batch":
		if w.Serve != nil {
			return nil, fmt.Errorf("workload %s: batch workload with a serve plan", name)
		}
	case "serve":
		p := w.Serve
		if p == nil || p.ClosedRounds <= 0 || p.ClosedRequests <= 0 || p.OpenRPS <= 0 || p.OpenSeconds <= 0 || p.LimitMs <= 0 {
			return nil, fmt.Errorf("workload %s: serve plan needs closed_rounds, closed_requests, open_rps, open_seconds, limit_ms > 0", name)
		}
		if p.Keys > 0 && p.ZipfS <= 0 {
			return nil, fmt.Errorf("workload %s: keys > 0 needs zipf_s > 0", name)
		}
	default:
		return nil, fmt.Errorf("workload %s: kind %q is neither batch nor serve", name, w.Kind)
	}
	// fig-scale's column labels depend on the spec's machines, so the
	// runnable set is kept per machines value.
	runnable := map[int]map[bench.CellRef]bool{}
	for i := range w.Cells {
		c := &w.Cells[i]
		spec, err := core.ParseRunSpec(c.Spec)
		if err != nil {
			return nil, fmt.Errorf("workload %s cell %d: %w", name, i, err)
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("workload %s cell %d: %w", name, i, err)
		}
		if spec.Row == "" {
			return nil, fmt.Errorf("workload %s cell %d: needs row and col (each spec is one cell, so host time belongs to one engine)", name, i)
		}
		if spec.Seed != 0 {
			return nil, fmt.Errorf("workload %s cell %d: seed is set by --seed, not the file", name, i)
		}
		refs := runnable[spec.Machines]
		if refs == nil {
			refs = map[bench.CellRef]bool{}
			for _, r := range bench.RunnableCellRefs(spec.Normalize().Options()) {
				refs[r] = true
			}
			runnable[spec.Machines] = refs
		}
		ref := bench.CellRef{Figure: spec.Figure, Row: spec.Row, Col: spec.Col}
		if !refs[ref] {
			return nil, fmt.Errorf("workload %s cell %d: %s is not a runnable cell (the paper marks it NA)", name, i, ref)
		}
		c.spec = spec
	}
	return &w, nil
}

// label is the cell's "figure · row · col" display name.
func (c Cell) label() string {
	return c.spec.Figure + " · " + c.spec.Row + " · " + c.spec.Col
}

// withSeed returns the cell's spec as the JSON document the programs
// receive, with the given seed.
func (c Cell) withSeed(seed uint64) (core.RunSpec, []byte) {
	s := c.spec
	s.Seed = seed
	data, err := json.Marshal(s)
	if err != nil { // a struct of scalars
		panic(err)
	}
	return s, data
}

// splitmix is the benchmark's own generator. Workload inputs must not
// move when internal/randgen does, so nothing here draws from it.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// specSeed derives the RunSpec seed of stream element id: never 0 (which
// Normalize would read as "default").
func specSeed(seed uint64, id int) uint64 {
	r := splitmix{s: seed ^ (uint64(id)+1)*0xd1342543de82ef95}
	return r.next()>>1 | 1
}

// Request is one element of a serve workload's request stream.
type Request struct {
	// Key identifies the cache key: equal keys are equal specs.
	Key  int
	Cell int
	Spec []byte
}

// zipfStreamSeed fixes the order in which a Zipf workload draws its keys.
// The sharing structure — which request repeats which earlier one — is
// what such a workload is defined by: drawn afresh per seed, the share of
// misses in a 560-request window moved by ±13% and throughput with it,
// which no bound could tell from a regression. The seed still decides the
// data behind every key.
const zipfStreamSeed = 0x6d6c62656e6368

// requestStream generates the first n requests of a serve workload for a
// seed. With Keys == 0 every request has its own key and the catalogue
// is walked in seeded shuffles of whole blocks, so any window holds the
// same mix of cells whatever the seed. With Keys > 0, keys are drawn
// Zipf(s) by rank in a fixed order (see zipfStreamSeed); rank r maps to
// catalogue cell r mod len, and the seed gives each key its spec seed.
func (w *Workload) requestStream(seed uint64, n int) []Request {
	out := make([]Request, 0, n)
	rng := splitmix{s: seed}
	nc := len(w.Cells)
	if w.Serve.Keys == 0 {
		for len(out) < n {
			perm := make([]int, nc)
			for i := range perm {
				perm[i] = i
			}
			for i := nc - 1; i > 0; i-- {
				j := rng.intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			for _, c := range perm {
				if len(out) == n {
					break
				}
				id := len(out)
				_, spec := w.Cells[c].withSeed(specSeed(seed, id))
				out = append(out, Request{Key: id, Cell: c, Spec: spec})
			}
		}
		return out
	}
	rng = splitmix{s: zipfStreamSeed}
	cdf := zipfCDF(w.Serve.Keys, w.Serve.ZipfS)
	specs := make(map[int][]byte)
	for len(out) < n {
		k := sort.SearchFloat64s(cdf, rng.float())
		if k >= len(cdf) {
			k = len(cdf) - 1
		}
		c := k % nc
		if specs[k] == nil {
			_, specs[k] = w.Cells[c].withSeed(specSeed(seed, k))
		}
		out = append(out, Request{Key: k, Cell: c, Spec: specs[k]})
	}
	return out
}

// zipfCDF is the cumulative distribution of rank r in [0, n) with weight
// (r+1)^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}

// dueTimes is the open loop's arrival schedule: n requests at a fixed
// rate, request i due i/rps seconds after the phase starts.
func dueTimes(rps float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / rps
	}
	return out
}

// scaled sizes a count written for referenceSeconds to the run's
// --seconds, never below one.
func scaled(n int, seconds float64) int {
	v := int(math.Round(float64(n) * seconds / referenceSeconds))
	if v < 1 {
		v = 1
	}
	return v
}
