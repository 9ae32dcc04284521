package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlbench/internal/core"
	"mlbench/internal/loadgen"
	"mlbench/internal/serve"
	"mlbench/internal/trace"
)

// layerStats accumulates, over the cells one traced run executes, the
// per-engine work each one's trace.Recorder and progress stream report.
// Serve workers fold concurrently, hence the lock.
type layerStats struct {
	mu       sync.Mutex
	busy     map[string]time.Duration // host time of cells, by engine label
	phases   map[string]float64       // barriers seen through ExecOptions.Progress
	tasks    map[string]float64       // task spans in the Recorder
	volume   map[string]float64       // the engine's volume counter
	execute  time.Duration            // host time inside core.Execute, all cells
	cells    int
	virtSec  float64 // simulated seconds of every measured cell
	faultSec time.Duration
	faultN   int
}

func newLayerStats() *layerStats {
	return &layerStats{
		busy: map[string]time.Duration{}, phases: map[string]float64{},
		tasks: map[string]float64{}, volume: map[string]float64{},
	}
}

// execTrace is what one traced core.Execute call left behind for the
// span tree: its interval, the engine package it ran on, and a stamp per
// phase barrier. The engine is known only once the run's Recorder has
// samples, so spans are made from this afterwards (addSpans).
type execTrace struct {
	name       string
	start, end time.Time
	layer      string // engine package, "sim" when the cell never reached an engine
	barriers   []barrier
}

type barrier struct {
	phase string
	at    time.Time
}

// addSpans records the call under parent: one "bench" span for
// core.Execute and, inside it, one span per phase barrier in the
// engine's layer (the interval up to a barrier is that engine's phase).
func (t execTrace) addSpans(tracer *Tracer, parent *open) {
	exec := tracer.begin(t.name, "bench", parent)
	last := t.start
	for _, b := range t.barriers {
		tracer.add(b.phase, t.layer, exec, last, b.at)
		last = b.at
	}
	exec.record(t.start, t.end)
}

// executeCell runs one spec through core.Execute with a Recorder and a
// progress sink attached and folds what they saw into stats. progress,
// when non-nil, also receives every event (the serve layer's SSE sink).
// Nil stats make it the plain untraced call.
func executeCell(ctx context.Context, s core.RunSpec, progress func(core.ProgressEvent), stats *layerStats) (*core.SpecResult, execTrace, error) {
	if stats == nil {
		res, err := core.Execute(ctx, s, core.ExecOptions{Progress: progress, SkipExports: true})
		return res, execTrace{}, err
	}
	rec := trace.NewRecorder()
	t := execTrace{name: "core.Execute " + s.Figure + "/" + s.Row + "/" + s.Col, layer: "sim", start: time.Now()}
	res, err := core.Execute(ctx, s, core.ExecOptions{
		Recorder: rec, SkipExports: true,
		Progress: func(e core.ProgressEvent) {
			t.barriers = append(t.barriers, barrier{e.Phase, time.Now()})
			if progress != nil {
				progress(e)
			}
		},
	})
	t.end = time.Now()
	if err != nil {
		return nil, t, err
	}
	host := t.end.Sub(t.start)

	engine := ""
	for _, sm := range rec.Metrics().Snapshot() {
		if sm.Engine != "" {
			engine = sm.Engine
			break
		}
	}
	var tasks float64
	faulted := false
	for _, sp := range rec.Spans() {
		switch sp.Cat {
		case trace.CatTask:
			tasks++
		case trace.CatFault:
			faulted = true
		}
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindFault {
			faulted = true
		}
	}
	var virt float64
	for _, row := range res.Table.Cells {
		for _, c := range row {
			if !c.Failed && !c.Skipped {
				virt += c.InitSec + c.IterSec*float64(res.Spec.Iterations)
			}
		}
	}

	stats.mu.Lock()
	defer stats.mu.Unlock()
	stats.execute += host
	stats.cells++
	stats.virtSec += virt
	stats.busy[engine] += host
	stats.phases[engine] += float64(len(t.barriers))
	stats.tasks[engine] += tasks
	for _, e := range engines {
		if e.label == engine {
			t.layer = e.pkg
			stats.volume[engine] += rec.Metrics().Total(e.volume)
		}
	}
	if faulted {
		stats.faultSec += host
		stats.faultN++
	}
	return res, t, nil
}

// report sets the engine, faults and bench metrics.
func (s *layerStats) report(run *Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range engines {
		run.set(e.pkg+".busy_s", s.busy[e.label].Seconds())
		run.set(e.pkg+".phases", s.phases[e.label])
		run.set(e.pkg+".tasks", s.tasks[e.label])
		if t := s.tasks[e.label]; t > 0 {
			run.set(e.pkg+".host_us_per_task", float64(s.busy[e.label].Microseconds())/t)
		}
		run.set(e.pkg+"."+e.volume, s.volume[e.label])
	}
	run.set("faults.busy_s", s.faultSec.Seconds())
	run.set("faults.cells", float64(s.faultN))
	run.set("bench.execute_s", s.execute.Seconds())
	run.set("bench.cells", float64(s.cells))
	run.set("bench.virt_s", s.virtSec)
	if unlabelled := s.busy[""]; unlabelled > 0 {
		// A cell that fails before its engine is constructed carries no
		// engine label; its time is in bench.execute_s only.
		run.extra("bench.unlabelled_s", "s", unlabelled.Seconds())
	}
}

// memDelta reports the Go heap's activity between two MemStats.
func memDelta(run *Run, m0, m1 *runtime.MemStats) {
	run.set("proc.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	run.set("proc.gc_count", float64(m1.NumGC-m0.NumGC))
	run.set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
}

// peakRSSMB reads this process's peak resident set (VmHWM) — the traced
// pass runs the cells in process, so this stands where the untraced pass
// reports its children's Maxrss.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runTraced is the traced pass of one workload: the workload once in
// process with no spans (the reference), once with spans at every layer
// boundary the benchmark can reach from outside, then the micro-probes.
// The spans are written as Chrome trace JSON when the run ends.
func runTraced(ctx context.Context, e *env, w *Workload, seed uint64, seconds float64) *Run {
	run := newRun(seed, true)
	tracer := newTracer()
	stats := newLayerStats()
	run.set("proc.build_s", e.buildSec)

	var m0, m1 runtime.MemStats
	var untraced, traced time.Duration
	if w.Kind == "batch" {
		runtime.ReadMemStats(&m0)
		untraced, traced = tracedBatch(ctx, w, run, tracer, stats)
		runtime.ReadMemStats(&m1)
	} else {
		untraced = tracedServe(ctx, w, run, seconds, nil, nil)
		runtime.ReadMemStats(&m0)
		traced = tracedServe(ctx, w, run, seconds, tracer, stats)
		runtime.ReadMemStats(&m1)
	}
	memDelta(run, &m0, &m1)
	run.set("proc.rss_peak_mb", peakRSSMB())
	if untraced > 0 {
		run.set("trace.overhead_share", (traced-untraced).Seconds()/untraced.Seconds())
	}
	stats.report(run)
	lifecycleProbe(ctx, e, run, tracer)
	runProbes(e, run, tracer)

	spans := tracer.all()
	for layer, self := range layerSelf(spans) {
		run.extra("self_s."+layer, "s", self.Seconds())
	}
	run.extra("spans", "count", float64(len(spans)))
	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
	run.op(writeChrome(path, spans))
	run.finish()
	return run
}

// tracedBatch executes every spec of the workload in process plainly,
// with spans and a Recorder, and plainly again, and returns the host time
// of the traced executions and the mean of the plain ones on either side,
// so that neither kind is always the one that runs first in a cold
// process. The difference is still a rough figure: a process keeps
// warming up for several executions, and a Recorder's retained spans
// enlarge the live heap, which makes the collector run less often — on
// the Lasso cell the traced execution reads about 10% *faster*. A traced
// spec is a root span with children around the cache-key computation,
// core.Execute (and each phase barrier in it) and the render.
func tracedBatch(ctx context.Context, w *Workload, run *Run, tracer *Tracer, stats *layerStats) (untraced, traced time.Duration) {
	plain := func(s core.RunSpec) {
		start := time.Now()
		res, _, err := executeCell(ctx, s, nil, nil)
		if err == nil {
			sink += float64(len(res.Table.Render()))
		}
		untraced += time.Since(start)
	}
	spans := func(c Cell, s core.RunSpec) {
		start := time.Now()
		root := tracer.begin("spec "+c.label(), "client", nil)
		key := tracer.begin("Normalize+Validate+CacheKey", "bench", root)
		n := s.Normalize()
		err := n.Validate()
		sink += float64(len(n.CacheKey()))
		key.end()
		if err == nil {
			res, et, execErr := executeCell(ctx, s, nil, stats)
			et.addSpans(tracer, root)
			if err = execErr; err == nil {
				render := tracer.begin("Table.Render", "bench", root)
				table := res.Table.Render()
				render.end()
				err = checkOutcome(c, []byte(table))
			}
		}
		root.end()
		traced += time.Since(start)
		run.op(err)
	}
	for _, c := range w.Cells {
		s, _ := c.withSeed(run.Seed)
		plain(s)
		spans(c, s)
		plain(s)
	}
	untraced /= 2
	return untraced, traced
}

// runnerStamps keeps what the traced serve runner saw of each run, by
// cache key, for the client that submitted it to hang under its own
// request span (the runner cannot know which request it is serving).
type runnerStamps struct {
	mu sync.Mutex
	at map[string]execTrace
}

func (r *runnerStamps) lookup(key string) (execTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.at[key]
	return t, ok
}

// tracedServe runs a serve workload against a serve.Server in this
// process, through loadgen.HandlerClient, at half the untraced pass's
// phase lengths (per-layer numbers have no bound to hold, and the pass
// runs the closed loop twice). It returns the closed loop's elapsed
// time. With a tracer it also runs the open loop and reports the serve
// layer's metrics.
func tracedServe(ctx context.Context, w *Workload, run *Run, seconds float64, tracer *Tracer, stats *layerStats) time.Duration {
	plan := w.Serve
	workers := runtime.NumCPU()
	nPrime := plan.PrimeRequests
	nClosed := scaled(plan.ClosedRounds*plan.ClosedRequests, seconds/2)
	nOpen := scaled(int(plan.OpenRPS*plan.OpenSeconds), seconds/2)
	stream := w.requestStream(run.Seed, nPrime+nClosed+nOpen)

	cfg := serve.Config{Workers: workers}
	stamps := &runnerStamps{at: map[string]execTrace{}}
	if tracer != nil {
		// The service's own runner, with stamps around the one call it
		// makes.
		cfg.Runner = func(ctx context.Context, spec core.RunSpec, progress func(core.ProgressEvent)) (*serve.RunOutput, error) {
			res, et, err := executeCell(ctx, spec, progress, stats)
			if err != nil {
				return nil, err
			}
			m, n := res.Table.Agreement(3)
			out := &serve.RunOutput{Table: res.Table.Render(), Markdown: res.Table.RenderMarkdown(), Matched: m, Total: n}
			stamps.mu.Lock()
			stamps.at[spec.CacheKey()] = et
			stamps.mu.Unlock()
			return out, nil
		}
	}
	srv := serve.New(cfg)
	defer func() {
		drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		err := srv.Drain(drainCtx)
		if tracer != nil {
			run.op(err)
		}
	}()
	c := newClient(loadgen.HandlerClient(srv.Handler()), "http://in-process", w.Cells, tracer)
	if tracer != nil {
		c.stamps = stamps.lookup
	}
	record := func(outs []outcome) {
		if tracer == nil {
			return // the reference run's operations are counted once, by the traced run
		}
		for _, o := range outs {
			run.op(o.err)
		}
	}

	if nPrime > 0 {
		outs, _ := c.closedLoop(ctx, stream[:nPrime], workers)
		record(outs)
	}
	m0 := srv.Metrics()
	outs, elapsed := c.closedLoop(ctx, stream[nPrime:nPrime+nClosed], workers)
	record(outs)
	if tracer == nil {
		return elapsed
	}

	// Sample the queue and the pool while the open loop runs.
	stopSampling := make(chan struct{})
	sampled := make(chan [2]float64, 1)
	go func() {
		var depthMax, busySum, n float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				if n > 0 {
					busySum /= n
				}
				sampled <- [2]float64{depthMax, busySum}
				return
			case <-tick.C:
				m := srv.Metrics()
				if d := float64(m.QueueDepth); d > depthMax {
					depthMax = d
				}
				busySum += float64(m.WorkersBusy)
				n++
			}
		}
	}()
	open := c.openLoop(ctx, stream[nPrime+nClosed:], dueTimes(plan.OpenRPS, nOpen))
	close(stopSampling)
	s := <-sampled
	record(open)

	counts := countersSince(m0, srv.Metrics())
	run.set("serve.submitted", float64(counts.Submitted))
	run.set("serve.cache_hits", float64(counts.CacheHits))
	run.set("serve.coalesced", float64(counts.Coalesced))
	run.set("serve.rejected", float64(counts.Rejected))
	run.set("serve.hit_share", hitShare(counts))
	run.set("serve.queue_depth_max", s[0])
	run.set("serve.workers_busy_mean", s[1])

	var server, queue, service, late []float64
	var polls int
	var waited time.Duration
	within := 0
	for _, o := range open {
		late = append(late, float64(o.sent.Sub(o.due))/float64(time.Millisecond))
		if o.err == nil && o.latencyMs() <= plan.LimitMs {
			within++
		}
	}
	for _, o := range append(outs, open...) {
		polls += o.polls
		waited += o.waited
		if o.err != nil || o.cached {
			continue
		}
		if o.serverMs > 0 {
			server = append(server, o.serverMs)
		}
		if o.serviceMs > 0 {
			queue = append(queue, o.queueMs)
			service = append(service, o.serviceMs)
		}
	}
	run.extra("slo_share", "share", float64(within)/float64(len(open)))
	run.set("serve.server_latency_p50_ms", percentile(server, 50))
	run.set("serve.queue_wait_p50_ms", percentile(queue, 50))
	run.set("serve.queue_wait_p90_ms", percentile(queue, 90))
	run.set("serve.service_p50_ms", percentile(service, 50))
	run.set("gen.late_p99_ms", percentile(late, 99))
	run.set("gen.late_max_ms", maxOf(late))
	if polls > 0 {
		run.set("gen.poll_interval_ms", float64(waited)/float64(polls)/float64(time.Millisecond))
	}
	return elapsed
}

// lifecycleProbe boots and drains the built mlbenchd a few times: what
// an operator pays per restart.
func lifecycleProbe(ctx context.Context, e *env, run *Run, tracer *Tracer) {
	var boots, drains []float64
	for i := 0; i < setupReps; i++ {
		sp := tracer.begin("mlbenchd boot+drain", "serve", nil)
		d, err := e.startDaemon(ctx, "lifecycle.mlbenchd.stderr.log", runtime.NumCPU())
		run.op(err)
		if err != nil {
			return
		}
		drain, err := d.stop()
		sp.end()
		run.op(err)
		boots = append(boots, d.bootMs)
		drains = append(drains, drain)
	}
	run.set("serve.boot_ms", median(boots))
	run.set("serve.drain_s", median(drains))
}
