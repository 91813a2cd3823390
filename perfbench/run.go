package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
)

// servingSpecs maps each serving workload to its set-up and the fixed rate
// of its open-loop phase: a third or less of the closed-loop capacity
// measured on a 2-core host at the commit that added the benchmark, so that
// the phase stays below saturation when a shared host runs at half speed
// (README.md).
var servingSpecs = map[string]struct {
	setup   setupFunc
	openRPS float64
}{
	"solve-cold":  {setupCold, 3.5},
	"solve-hot":   {setupHot, 250},
	"fleet-spray": {setupFleet, 9},
}

// runServing sets up one serving workload and measures it. Untraced, a
// closed-loop phase (1/3 of the window) gives throughput and an open-loop
// phase (2/3) gives latency. Traced, the window is split in three: closed
// loop untraced, closed loop traced (their ratio is the tracing overhead)
// and open loop traced; the layer ladder follows.
func runServing(ctx context.Context, o options, began time.Time, g *gate, tr *tracer, scratch string) (m map[string]metric, all *tally, err error) {
	spec := servingSpecs[o.workload]
	env, setupS, err := setUp(o, began, func(rep int) (*servingEnv, error) {
		return spec.setup(ctx, o.seed, filepath.Join(scratch, strconv.Itoa(rep)), g)
	}, (*servingEnv).close)
	if err != nil {
		return nil, nil, err
	}
	defer func() { err = errors.Join(err, env.close()) }()
	conns := newConns(clientConns(), urlsOf(env.replicas), g)
	defer closeConns(conns)
	d := time.Duration(o.seconds) * time.Second

	if tr == nil {
		closed, open := &tally{}, &tally{}
		tput := closedLoop(ctx, conns, env.next, d/3, closed, nil)
		openStart := time.Now()
		openLoop(ctx, conns, env.next, spec.openRPS, d*2/3, open, nil)
		all = merge(closed, open)
		logSources(o.workload, all.answers)
		if n := len(open.samples); n >= 1000 { // ten samples beyond the p99
			lat := make([]float64, n)
			for i, s := range open.samples {
				lat[i] = s.ms()
			}
			fmt.Fprintf(os.Stderr, "perfbench: latency_p99_ms %.4g (%d samples)\n", quantile(lat, 0.99), n)
		}
		if err := checkSurrogate(env, all.answers, g, o); err != nil {
			return nil, nil, err
		}
		return map[string]metric{
			"setup_s":        {setupS, "s"},
			"latency_p50_ms": {latencyQuantile(open.samples, openStart, 0.5), "ms"},
			"latency_p90_ms": {latencyQuantile(open.samples, openStart, 0.9), "ms"},
			"throughput_rps": {tput, "1/s"},
		}, all, nil
	}

	before := env.reg.Snapshot()
	untraced, traced, open := &tally{}, &tally{}, &tally{}
	tputU := closedLoop(ctx, conns, env.next, d/3, untraced, nil)
	tputT := closedLoop(ctx, conns, env.next, d/3, traced, tr)
	openLoop(ctx, conns, env.next, spec.openRPS, d/3, open, tr)
	after := env.reg.Snapshot()
	all = merge(untraced, traced, open)
	logSources(o.workload, all.answers)
	if err := checkSurrogate(env, all.answers, g, o); err != nil {
		return nil, nil, err
	}
	cfg, err := solverConfig()
	if err != nil {
		return nil, nil, err
	}
	out, err := ladder(ctx, tr, layerIn{
		seed: o.seed, cfg: cfg, probe: env.probe, table: env.table, reg: env.reg, g: g,
		bodies: distinctBodies(merge(traced, open).answers), dir: filepath.Join(scratch, "ladder"),
	})
	if err != nil {
		return nil, nil, err
	}
	m = layerMetrics(tr, out, cfg, env.reg.Snapshot())
	for s, f := range sourceFracs(all.answers) {
		m["serve.source."+string(s)+".frac"] = metric{f, "ratio"}
	}
	delta := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	m["surrogate.hit_frac"] = metric{ratio(delta("serve.surrogate.hit"), delta("serve.surrogate.miss")), "ratio"}
	m["store.hit_frac"] = metric{ratio(delta("store.hit"), delta("store.miss")), "ratio"}
	m["cluster.owned_frac"] = metric{ratio(delta("cluster.owned"), delta("cluster.forwarded")), "ratio"}
	m["harness.lag_p99_ms"] = metric{quantile(open.lagMs, 0.99), "ms"}
	m["harness.trace_overhead_frac"] = metric{1 - tputT/tputU, "ratio"}
	return m, all, nil
}

// runMarket sets up the market workload and measures it: whole MFG-CP market
// runs repeat until the window is over. An epoch is the market's unit of
// work, so latency is the wall time of one epoch and throughput is epochs
// per second. Traced, the first half runs untraced and the second half
// traced (their ratio is the tracing overhead); the layer ladder follows.
func runMarket(ctx context.Context, o options, began time.Time, g *gate, tr *tracer, scratch string) (map[string]metric, *tally, error) {
	env, setupS, err := setUp(o, began, func(int) (*marketEnv, error) { return setupMarket(o.seed) },
		func(*marketEnv) error { return nil })
	if err != nil {
		return nil, nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	lagCtx, stopLag := context.WithCancel(ctx)
	lag := startLagProbe(lagCtx)

	if tr == nil {
		t := &tally{}
		start := time.Now()
		rate, err := marketWindow(ctx, env, d, g, t, nil)
		stopLag()
		<-lag
		if err != nil {
			return nil, nil, err
		}
		return map[string]metric{
			"setup_s":        {setupS, "s"},
			"latency_p50_ms": {latencyQuantile(t.samples, start, 0.5), "ms"},
			"latency_p90_ms": {latencyQuantile(t.samples, start, 0.9), "ms"},
			"throughput_rps": {rate, "1/s"},
		}, t, nil
	}

	untraced, traced := &tally{}, &tally{}
	rateU, err := marketWindow(ctx, env, d/2, g, untraced, nil)
	var rateT float64
	if err == nil {
		rateT, err = marketWindow(ctx, env, d/2, g, traced, tr)
	}
	stopLag()
	lagMs := <-lag
	if err != nil {
		return nil, nil, err
	}
	base := env.config(nil, 1, nil)
	cfg := base.Solver
	eps, err := traceEpochs(env.seed, 1, base.RequestsPerEDP)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([]request, len(eps[0]))
	for k, w := range eps[0] {
		bodies[k] = request{id: k, body: bodyOf(w)}
	}
	reg := obs.NewRegistry(nil)
	out, err := ladder(ctx, tr, layerIn{
		seed: o.seed, cfg: cfg, probe: eps[0][:3], reg: reg, g: g, bodies: bodies,
		dir: filepath.Join(scratch, "ladder"),
	})
	if err != nil {
		return nil, nil, err
	}
	m := layerMetrics(tr, out, cfg, reg.Snapshot())
	for s, f := range sourceFracs(nil) {
		m["serve.source."+string(s)+".frac"] = metric{f, "ratio"}
	}
	for _, name := range []string{"surrogate.hit_frac", "store.hit_frac", "cluster.owned_frac"} {
		m[name] = metric{0, "ratio"}
	}
	m["harness.lag_p99_ms"] = metric{quantile(lagMs, 0.99), "ms"}
	m["harness.trace_overhead_frac"] = metric{1 - rateT/rateU, "ratio"}
	return m, merge(untraced, traced), nil
}

// marketWindow repeats whole market runs for d, checks each run's ledger and
// returns the epochs completed per second. Traced, each run is a span with
// one child span per epoch.
func marketWindow(ctx context.Context, env *marketEnv, d time.Duration, g *gate, t *tally, tr *tracer) (float64, error) {
	start := time.Now()
	for run := 0; run == 0 || time.Since(start) < d; run++ {
		o := tr.begin(run, 0, "market.run")
		l, epochs, err := env.run(ctx)
		o.end("")
		if err != nil {
			return 0, err
		}
		if err := env.check(l); err != nil {
			g.fail("%v", err)
		}
		for _, s := range epochs {
			if tr != nil {
				tr.add(run, o.id(), "sim.epoch", s)
			}
			t.attempted++
			t.samples = append(t.samples, s)
		}
	}
	return throughput(t.samples, start), nil
}

// lagProbeInterval is the period of the market's stand-in schedule.
const lagProbeInterval = 10 * time.Millisecond

// startLagProbe measures how late a fixed schedule wakes up while the market
// runs — the lateness an open-loop generator would have on this load. The
// samples arrive on the returned channel once ctx is done.
func startLagProbe(ctx context.Context) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var lag []float64
		for due := time.Now(); ctx.Err() == nil; {
			due = due.Add(lagProbeInterval)
			time.Sleep(time.Until(due))
			lag = append(lag, ms(time.Since(due)))
		}
		out <- lag
	}()
	return out
}

// layerMetrics derives the per-layer metrics from the spans of the traced
// run, the ladder's counts and the daemon registry.
func layerMetrics(tr *tracer, out *layerOut, cfg engine.Config, reg obs.Snapshot) map[string]metric {
	med := func(name string) float64 { return median(tr.durationsMs(name)) }
	us := func(name string) float64 { return 1e3 * med(name) }
	histMs := func(name string, q float64) float64 { return 1e3 * reg.Histograms[name].Quantile(q) }
	m := map[string]metric{
		"linalg.tridiag_batch_us":        {us("linalg.TridiagBatch"), "us"},
		"linalg.tridiag_batch.bytes":     {tridiagBytes(cfg), "B"},
		"pde.hjb_ms":                     {med("pde.SolveHJBInto"), "ms"},
		"pde.fpk_ms":                     {med("pde.SolveFPKInto"), "ms"},
		"engine.solve_cold_ms":           {med("engine.Solve"), "ms"},
		"engine.solve_warm_ms":           {med("engine.Session.Solve"), "ms"},
		"engine.solve.iterations":        {median(out.solveIters), "count"},
		"engine.solve.allocs":            {median(out.solveAllocs), "count"},
		"engine.decode_us":               {us("engine.decode"), "us"},
		"engine.cache_key_us":            {us("engine.CacheKey"), "us"},
		"engine.cache_key.allocs":        {out.cacheKeyAlloc, "count"},
		"engine.cache_get_us":            {us("engine.Cache.Get"), "us"},
		"engine.unmarshal_us":            {us("engine.UnmarshalEquilibrium"), "us"},
		"engine.marshal_us":              {us("engine.MarshalEquilibrium"), "us"},
		"engine.blob_kb":                 {float64(out.blobBytes) / 1024, "kB"},
		"surrogate.build_s":              {med("surrogate.Build") / 1e3, "s"},
		"surrogate.lookup_us":            {us("surrogate.Lookup"), "us"},
		"surrogate.lookup.allocs":        {out.lookupAllocs, "count"},
		"store.open_s":                   {med("store.Open") / 1e3, "s"},
		"store.get_us":                   {us("store.Get"), "us"},
		"store.put_us":                   {us("store.Put"), "us"},
		"serve.queue_wait.p50_ms":        {histMs("serve.queue.wait.seconds", 0.5), "ms"},
		"serve.queue_wait.p90_ms":        {histMs("serve.queue.wait.seconds", 0.9), "ms"},
		"serve.singleflight_wait.p50_ms": {histMs("serve.singleflight.wait.seconds", 0.5), "ms"},
		"cluster.owner_us":               {us("cluster.Owner"), "us"},
		"cluster.fetch_ms":               {med("cluster.Fetch"), "ms"},
		"policy.prepare_ms":              {med("policy.MFGCP.Prepare"), "ms"},
		"sim.rr_epoch_ms":                {med("sim.RunContext(RR)") / float64(out.rrEpochs), "ms"},
		"sim.rr_epoch.allocs":            {out.rrEpochAllocs, "count"},
	}
	for _, s := range sources {
		m["serve.source."+string(s)+".p50_ms"] = metric{median(tr.durationsMs("client.request", string(s))), "ms"}
	}
	return m
}

// sourceFracs is the share of successful answers each rung gave; every rung
// is present, with 0 when it gave none.
func sourceFracs(answers []answer) map[serve.Source]float64 {
	out := make(map[serve.Source]float64, len(sources))
	for _, s := range sources {
		out[s] = 0
	}
	for _, a := range answers {
		out[a.source] += 1 / float64(len(answers))
	}
	return out
}

// logSources prints the rung shares of a run to standard error.
func logSources(workload string, answers []answer) {
	fracs := sourceFracs(answers)
	parts := make([]string, 0, len(fracs))
	for _, s := range sources {
		parts = append(parts, fmt.Sprintf("%s %.3f", s, fracs[s]))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s answers by rung (%d): %s\n", workload, len(answers), strings.Join(parts, ", "))
}

func ratio(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// distinctBodies lists the bodies of the answers, first answer first, each
// body once.
func distinctBodies(answers []answer) []request {
	sorted := append([]answer(nil), answers...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	seen := make(map[int]bool)
	var out []request
	for _, a := range sorted {
		if !seen[a.req.id] {
			seen[a.req.id] = true
			out = append(out, a.req)
		}
	}
	return out
}

// surrogateSamples is how many surrogate answers of a run are re-solved
// exactly and checked against the bound they were served with.
const surrogateSamples = 2

// checkSurrogate re-solves a seeded sample of the run's surrogate answers
// and fails the gate when the table's interpolation error for that workload
// exceeds the error_bound it served.
func checkSurrogate(env *servingEnv, answers []answer, g *gate, o options) error {
	if env.table == nil {
		return nil
	}
	byID := make(map[int]answer)
	for _, a := range answers {
		if a.source == serve.SourceSurrogate {
			byID[a.req.id] = a
		}
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rand.New(rand.NewSource(o.seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	n := surrogateSamples
	if o.short {
		n = 1
	}
	for _, id := range ids[:min(n, len(ids))] {
		a := byID[id]
		var req struct{ Workload engine.Workload }
		if err := json.Unmarshal(a.req.body, &req); err != nil {
			return err
		}
		eq, err := engine.Solve(env.table.Config, req.Workload)
		if err = solved(eq, err); err != nil {
			return err
		}
		got, err := env.table.SummaryError(req.Workload, eq)
		if err != nil {
			return err
		}
		if !(got <= a.errorBound) {
			g.fail("body %d: surrogate error %g exceeds its served bound %g", id, got, a.errorBound)
		}
	}
	return nil
}
