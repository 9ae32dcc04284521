package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"mlbench/internal/core"
	"mlbench/internal/datagen"
	"mlbench/internal/linalg"
	"mlbench/internal/loadgen"
	"mlbench/internal/models/gmm"
	"mlbench/internal/models/hmm"
	"mlbench/internal/models/impute"
	"mlbench/internal/models/lasso"
	"mlbench/internal/models/lda"
	"mlbench/internal/ordmap"
	"mlbench/internal/perfgate"
	"mlbench/internal/randgen"
	"mlbench/internal/serve"
	"mlbench/internal/trace"
	"mlbench/internal/workload"
)

// probe times one public function of one layer from outside it. The
// metric is the median over probeReps of (ns per Spec op) * perNs; a
// rate metric (Better "higher") is 1/that.
type probe struct {
	metric string
	spec   perfgate.Spec
	// opsPerCall is how many of the metric's own operations one Spec op
	// performs (64 tokens per document, 65,536 elements per stream).
	opsPerCall float64
}

// probeReps is the timed repetitions per probe; perfgate.Measure adds
// the spec's own warm-up rep.
const probeReps = 3

// sink keeps probe results live so the compiler cannot drop the calls.
var sink float64

// unitNs is how many nanoseconds one of a metric's units holds.
var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

// runProbes times every micro-probe, one span per probe call, and sets
// the metrics on run.
func runProbes(e *env, run *Run, tracer *Tracer) {
	probes, err := buildProbes(e)
	run.op(err)
	for _, p := range probes {
		sp := tracer.begin(p.metric, strings.SplitN(p.metric, ".", 2)[0], nil)
		res, err := perfgate.Measure(p.spec, perfgate.HarnessOptions{Reps: probeReps})
		sp.end()
		run.op(err)
		if err != nil {
			continue
		}
		d, _ := defOf(p.metric)
		ns := res.MedianNS / p.opsPerCall
		if d.Better == "higher" { // a rate: operations per second
			run.set(p.metric, 1e9/ns)
		} else {
			run.set(p.metric, ns/unitNs[d.Unit])
		}
	}
}

// spd returns an n x n symmetric positive definite matrix.
func spd(rng *randgen.RNG, n int) *linalg.Mat {
	m := linalg.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Norm()
	}
	a := m.MulMat(m.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func normVec(rng *randgen.RNG, n int) linalg.Vec {
	v := linalg.NewVec(n)
	for i := range v {
		v[i] = rng.Norm()
	}
	return v
}

func spec(n int, run func(n int) error) perfgate.Spec {
	return perfgate.Spec{N: n, Warmup: 1, Run: run}
}

// buildProbes constructs every probe's fixed inputs. Inputs come from
// fixed seeds, not --seed: a probe measures a function, not a workload.
func buildProbes(e *env) ([]probe, error) {
	var out []probe
	add := func(metric string, opsPerCall float64, s perfgate.Spec) {
		s.Name = metric
		out = append(out, probe{metric: metric, spec: s, opsPerCall: opsPerCall})
	}
	rng := randgen.New(101)

	// linalg, at the Lasso cells' order of size.
	const n = 200
	a := spd(rng, n)
	l, err := linalg.Cholesky(a)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	b, v := normVec(rng, n), normVec(rng, n)
	add("linalg.cholesky_us_n200", 1, spec(10, func(n int) error {
		for i := 0; i < n; i++ {
			f, err := linalg.Cholesky(a)
			if err != nil {
				return err
			}
			sink += f.Data[0]
		}
		return nil
	}))
	add("linalg.cholsolve_us_n200", 1, spec(200, func(n int) error {
		for i := 0; i < n; i++ {
			sink += linalg.CholSolve(l, b)[0]
		}
		return nil
	}))
	acc := linalg.NewMat(n, n)
	add("linalg.addouter_us_n200", 1, spec(500, func(n int) error {
		for i := 0; i < n; i++ {
			acc.AddOuter(1e-6, b, v)
		}
		sink += acc.Data[0]
		return nil
	}))
	add("linalg.solvelower_us_n200", 1, spec(500, func(n int) error {
		for i := 0; i < n; i++ {
			sink += linalg.SolveLower(l, b)[0]
		}
		return nil
	}))

	// models.
	state := lasso.Init(n)
	add("models.lasso_samplebeta_ms_p200", 1, spec(2, func(k int) error {
		for i := 0; i < k; i++ {
			if err := lasso.SampleBeta(rng, state, a, b); err != nil {
				return err
			}
		}
		sink += state.Beta[0]
		return nil
	}))
	for _, d := range []int{10, 100} {
		p := &gmm.Params{K: 1, D: d, Pi: linalg.Vec{1}, Mu: []linalg.Vec{normVec(rng, d)}, Sigma: []*linalg.Mat{spd(rng, d)}}
		if err := p.Prepare(); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		x := normVec(rng, d)
		add(fmt.Sprintf("models.gmm_logdensity_ns_d%d", d), 1, spec(200_000/d, func(n int) error {
			for i := 0; i < n; i++ {
				sink += p.LogDensity(0, x)
			}
			return nil
		}))
	}
	const docLen = 64
	words := make([]int, docLen)
	ldaH := lda.Hyper{T: 1000, V: 2000, Alpha: 0.1, Beta: 0.1}
	ldaM := lda.Init(rng, ldaH)
	ldaM.RefreshProposals(ldaH)
	for i := range words {
		words[i] = rng.Intn(ldaH.V)
	}
	doc := lda.InitDoc(rng, words, ldaH)
	hmmH := hmm.Hyper{K: 100, V: 2000, Alpha: 0.1, Beta: 0.1}
	hmmM := hmm.Init(rng, hmmH)
	hmmM.RefreshProposals()
	states := hmm.InitStates(rng, words, hmmH.K)
	var sc hmm.Scratch
	for _, t := range []struct {
		name string
		tier randgen.SamplerTier
		n    int
	}{{"dense", randgen.TierDense, 40}, {"mhalias", randgen.TierMHAlias, 2000}} {
		tier := t.tier
		add("models.lda_resample_ns_per_token_"+t.name, docLen, spec(t.n, func(n int) error {
			for i := 0; i < n; i++ {
				ldaM.ResampleZTier(rng, doc, tier)
			}
			sink += doc.Theta[0]
			return nil
		}))
		add("models.hmm_resample_ns_per_token_"+t.name, docLen, spec(t.n*5, func(n int) error {
			for i := 0; i < n; i++ {
				hmmM.ResampleStatesTier(rng, words, states, i, tier, &sc)
			}
			sink += float64(states[0])
			return nil
		}))
	}
	const impD = 10
	impMu, impSigma, impX := normVec(rng, impD), spd(rng, impD), normVec(rng, impD)
	missing := make([]bool, impD)
	for i := range missing {
		missing[i] = i%2 == 0
	}
	add("models.impute_draw_us", 1, spec(1000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := impute.SampleMissing(rng, impX, missing, impMu, impSigma); err != nil {
				return err
			}
		}
		sink += impX[0]
		return nil
	}))

	// randgen.
	weights := make([]float64, 100)
	alpha := make([]float64, 100)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
		alpha[i] = 0.1
	}
	alias := randgen.NewAlias(weights)
	add("randgen.norm_ns", 1, spec(500_000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += rng.Norm()
		}
		return nil
	}))
	add("randgen.gamma_ns", 1, spec(200_000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += rng.Gamma(2.5, 1)
		}
		return nil
	}))
	add("randgen.categorical_ns_k100", 1, spec(100_000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += float64(rng.Categorical(weights))
		}
		return nil
	}))
	add("randgen.alias_draw_ns", 1, spec(500_000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += float64(alias.Draw(rng))
		}
		return nil
	}))
	add("randgen.dirichlet_us_k100", 1, spec(2000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += rng.Dirichlet(alpha)[0]
		}
		return nil
	}))

	// workload / datagen, at fig-scale's per-machine shapes: what a
	// streamed partition pays every time it is re-opened.
	corpus := workload.CorpusConfig{Vocab: 1000, AvgLen: 20, Topics: 20}
	add("workload.corpus_open_us", 1, spec(100, func(n int) error {
		for i := 0; i < n; i++ {
			sink += float64(workload.OpenCorpus(rng, corpus)()[0])
		}
		return nil
	}))
	means := workload.PlantedMeans(rng, 4, 4, 8)
	const points = 1000
	add("workload.gmm_gen_ns_per_point", points, spec(20, func(n int) error {
		for i := 0; i < n; i++ {
			sink += workload.GenGMMAt(rng, means, points).Points[0][0]
		}
		return nil
	}))
	// datagen has no public entry to the fingerprint alone: this is
	// Generate of a point cloud, whose cost the canonical encoding and
	// hash share with the draws.
	fpSpec := datagen.DatasetSpec{Name: "probe-gmm", Seed: 31, Shards: 4, GMM: &datagen.GMMSpec{Points: 20_000, Dim: 10, Clusters: 4}}
	add("datagen.fingerprint_ms", 1, spec(2, func(n int) error {
		for i := 0; i < n; i++ {
			d, err := datagen.Generate(fpSpec, 1)
			if err != nil {
				return err
			}
			sink += float64(len(d.Fingerprint))
		}
		return nil
	}))

	// sim and datagen.corpus reuse the perf gate's own micro specs, so the
	// two tools time the same code.
	gate := map[string]perfgate.Spec{}
	for _, s := range append(perfgate.MicroSpecs(), perfgate.ServingSpecs()...) {
		gate[s.Name] = s
	}
	for _, g := range []struct {
		metric, gate string
		opsPerCall   float64
	}{
		{"datagen.corpus_docs_per_s", "micro:datagen-corpus", 64},
		{"sim.runphase_wide_us", "micro:runphase-wide-10km", 1},
		{"sim.runphase_merge_us", "micro:runphase-merge-16m", 1},
		{"sim.source_stream_ns_per_elem", "micro:source-stream-64k", 65_536},
		{"loadgen.replay_ms", "micro:loadgen-replay", 1},
	} {
		s, ok := gate[g.gate]
		if !ok {
			return nil, fmt.Errorf("probes: perfgate no longer has %s", g.gate)
		}
		if s.N > 20 {
			s.N /= 4 // the gate sizes reps for min-of-5 on a quiet runner; a quarter is enough here
		}
		add(g.metric, g.opsPerCall, s)
	}

	// loadgen / yamlite.
	profile, err := loadgen.LoadProfile(filepath.Join(e.root, "profiles", "ramp-burst-drain.yaml"))
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	add("loadgen.schedule_us", 1, spec(20, func(n int) error {
		for i := 0; i < n; i++ {
			sink += float64(len(loadgen.Schedule(profile)))
		}
		return nil
	}))

	// trace / ordmap.
	rec := trace.NewRecorder()
	for cell := 0; cell < 3; cell++ {
		rec.BeginCell(fmt.Sprintf("probe/cell%d", cell))
		for i := 0; i < 150; i++ {
			rec.AddSpan(fmt.Sprintf("phase%d", i%7), trace.CatPhase, i%16, float64(i), 1.5, trace.A("tasks", 16))
			rec.Count(fmt.Sprintf("phase%d", i%7), "bytes", float64(i)*128)
		}
	}
	add("trace.export_chrome_ms", 1, spec(20, func(n int) error {
		for i := 0; i < n; i++ {
			if err := trace.WriteChrome(io.Discard, rec); err != nil {
				return err
			}
		}
		return nil
	}))
	const keys = 1024
	add("ordmap.set_get_ns", 2*keys, spec(20, func(n int) error {
		for i := 0; i < n; i++ {
			m := ordmap.New[int, int]()
			for k := 0; k < keys; k++ {
				m.Set(k*7919%keys, k)
			}
			for k := 0; k < keys; k++ {
				v, _ := m.Get(k)
				sink += float64(v)
			}
		}
		return nil
	}))

	// bench: what every request pays before the cache can answer, and what
	// every computed table pays to become bytes.
	rs := core.RunSpec{Figure: "fig1c", Row: "GraphLab", Col: "100d with SV", Iterations: 1, ScaleDiv: 0.02}
	add("bench.cachekey_us", 1, spec(200, func(n int) error {
		for i := 0; i < n; i++ {
			s := rs
			s.Seed = uint64(i + 1)
			s = s.Normalize()
			if err := s.Validate(); err != nil {
				return err
			}
			sink += float64(len(s.CacheKey()))
		}
		return nil
	}))
	res, err := core.Execute(context.Background(), rs, core.ExecOptions{})
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	add("bench.render_us", 1, spec(2000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += float64(len(res.Table.Render()))
		}
		return nil
	}))

	serveProbes, err := buildServeProbes(rs, res.Table.Render())
	if err != nil {
		return nil, err
	}
	return append(out, serveProbes...), nil
}

// buildServeProbes times the serve layer's own entry points on a Server
// whose runner returns at once, so only the layer's bookkeeping is
// timed: Submit on the hit and the miss path, and the four HTTP
// endpoints this benchmark's client calls, through the in-process
// transport. The cache is filled to its default 64 entries first, with
// the hot spec newest; the miss probe runs last because it evicts. The
// server is left to the process's exit: its idle worker costs nothing.
func buildServeProbes(rs core.RunSpec, table string) ([]probe, error) {
	instant := func(ctx context.Context, spec core.RunSpec, progress func(core.ProgressEvent)) (*serve.RunOutput, error) {
		return &serve.RunOutput{Table: table, Matched: 1, Total: 1}, nil
	}
	// A queue deep enough that a burst of misses is never refused.
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 1 << 16, Runner: instant})
	hc := loadgen.HandlerClient(srv.Handler())
	const base = "http://probe"
	c := newClient(hc, base, nil, nil)
	ctx := context.Background()

	const cacheSize = 64
	var hot core.RunSpec
	var hotID string
	for i := 0; i < cacheSize; i++ {
		hot = rs
		hot.Seed = 1<<40 + uint64(i)
		j, _, err := srv.Submit(hot)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		hotID = j.ID
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Completed < cacheSize {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("probes: the serve probe's warm-up jobs did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	_, hotJSON := Cell{spec: hot}.withSeed(hot.Seed)

	var out []probe
	add := func(metric string, s perfgate.Spec) {
		s.Name = metric
		out = append(out, probe{metric: metric, spec: s, opsPerCall: 1})
	}
	add("serve.submit_hit_us", spec(5000, func(n int) error {
		for i := 0; i < n; i++ {
			_, disp, err := srv.Submit(hot)
			if err != nil {
				return err
			}
			if !disp.Cached {
				return fmt.Errorf("serve probe: the hot spec was not a cache hit")
			}
		}
		return nil
	}))
	add("serve.http_post_us", spec(1000, func(n int) error {
		for i := 0; i < n; i++ {
			resp, err := hc.Post(base+"/v1/runs", "application/json", bytes.NewReader(hotJSON))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("serve probe: POST /v1/runs of a cached spec: %d", resp.StatusCode)
			}
		}
		return nil
	}))
	get := func(metric, path string, n int) {
		add(metric, spec(n, func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := c.get(ctx, path); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	get("serve.status_get_us", "/v1/runs/"+hotID, 1000)
	get("serve.table_get_us", "/v1/runs/"+hotID+"/table", 1000)
	get("serve.list_us", "/v1/runs", 50)
	miss := uint64(1 << 42)
	add("serve.submit_miss_us", spec(500, func(n int) error {
		for i := 0; i < n; i++ {
			s := rs
			miss++
			s.Seed = miss
			if _, _, err := srv.Submit(s); err != nil {
				return err
			}
		}
		// Let the instant runner catch up, so the next rep starts from an
		// empty queue.
		for srv.Metrics().QueueDepth > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}))
	return out, nil
}
