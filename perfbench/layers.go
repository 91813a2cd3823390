package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// The layer ladder of a traced run: direct calls into each layer's public
// functions, each inside a span, on inputs drawn from the workload and its
// seed. Trace identifiers below zero mark ladder spans; body spans use the
// body identity (≥ 0).
const (
	traceLinalg = -1 - iota
	tracePDE
	traceEngine
	traceSurrogate
	traceStore
	traceRungs
	tracePolicy
	traceSim

	rungBodyID = -100 // first body identity of the rung ladder
)

// Repetitions of each ladder call. The kernels are microseconds to
// milliseconds; a solve is ~0.2 s on the market grid.
const (
	ladderKernelReps = 200
	ladderPDEReps    = 5
	ladderCodecReps  = 5
	ladderStoreReps  = 10
	ladderAllocReps  = 100
	ladderBodies     = 300 // bodies the per-body probes replay
)

// layerIn is what the ladder measures on.
type layerIn struct {
	seed   int64
	cfg    engine.Config     // the resolved solver config of the bodies
	probe  []engine.Workload // solve inputs taken from the workload's traffic
	table  *surrogate.Table  // the workload's own table; nil builds none
	reg    *obs.Registry     // the run's daemon registry
	g      *gate
	bodies []request // bodies the traced phases sent, for per-body probes
	dir    string
}

// layerOut holds the ladder's results that are not span durations.
type layerOut struct {
	blobBytes     int
	solveIters    []float64
	solveAllocs   []float64
	lookupAllocs  float64
	cacheKeyAlloc float64
	rrEpochAllocs float64
	rrEpochs      int
}

// ladder runs every layer probe once, in order, recording spans into tr.
func ladder(ctx context.Context, tr *tracer, in layerIn) (*layerOut, error) {
	out := &layerOut{}
	sess, err := engine.NewSession(in.cfg)
	if err != nil {
		return nil, err
	}
	ladderLinalg(tr, in.cfg)
	if err := ladderPDE(tr, in.cfg, sess); err != nil {
		return nil, fmt.Errorf("pde ladder: %w", err)
	}
	eqs, err := ladderEngine(tr, in, sess, out)
	if err != nil {
		return nil, fmt.Errorf("engine ladder: %w", err)
	}
	hot, err := hotRegion(in.seed)
	if err != nil {
		return nil, err
	}
	var table *surrogate.Table
	root := tr.begin(traceSurrogate, 0, "ladder.surrogate")
	tr.call(traceSurrogate, root.id(), "surrogate.Build", func() { table, err = buildTable(ctx, in.cfg, hot) })
	root.end("")
	if err != nil {
		return nil, fmt.Errorf("surrogate ladder: %w", err)
	}
	point := hot.inside(rand.New(rand.NewSource(in.seed)), 1)[0]
	out.lookupAllocs = allocsPer(ladderAllocReps, func() { table.Lookup(in.cfg, point) })
	if err := ladderStore(tr, in, eqs); err != nil {
		return nil, fmt.Errorf("store ladder: %w", err)
	}
	if err := ladderRungs(ctx, tr, in, table, hot); err != nil {
		return nil, fmt.Errorf("rung ladder: %w", err)
	}
	if err := ladderMarket(ctx, tr, in, out); err != nil {
		return nil, fmt.Errorf("market ladder: %w", err)
	}
	if in.table != nil {
		table = in.table
	}
	if err := probeBodies(tr, in, table, eqs, out); err != nil {
		return nil, fmt.Errorf("body probes: %w", err)
	}
	return out, nil
}

// ladderLinalg times one factorise-and-substitute of a q-sweep batch: NQ rows,
// one system per h node, as the HJB and FPK q-phases solve it.
func ladderLinalg(tr *tracer, cfg engine.Config) {
	n, m := cfg.NQ, cfg.NH
	bat := linalg.NewTridiagBatch[float64](n)
	for i := range bat.B {
		bat.A[i], bat.B[i], bat.C[i] = -1, 4, -1
	}
	rng := rand.New(rand.NewSource(1))
	x0 := make([]float64, n*m)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	x := make([]float64, n*m)
	root := tr.begin(traceLinalg, 0, "ladder.linalg")
	for i := 0; i < ladderKernelReps; i++ {
		copy(x, x0)
		tr.call(traceLinalg, root.id(), "linalg.TridiagBatch", func() {
			_ = bat.Factorize() // diagonally dominant: never singular
			_ = bat.SolveInterleaved(x, m)
		})
	}
	root.end("")
}

// tridiagBytes is the memory traffic of one ladderLinalg call, computed from
// the array sizes: the factorisation reads three diagonals and writes two
// pivot arrays, the substitution reads the sub-diagonal and both pivot
// arrays and reads and writes the n×m field, 8 bytes per element.
func tridiagBytes(cfg engine.Config) float64 {
	n, m := cfg.NQ, cfg.NH
	return 8 * float64(3*n+2*n+3*n+2*n*m)
}

// ladderPDE times one HJB and one FPK solve on the solver's own grid and
// time mesh, with the closed-form control of the market parameters.
func ladderPDE(tr *tracer, cfg engine.Config, sess *engine.Session) error {
	g, tm := sess.Grid(), sess.Time()
	p := cfg.Params
	sch, err := pde.SchemeByName("implicit")
	if err != nil {
		return err
	}
	ws, err := pde.NewWorkspace(g)
	if err != nil {
		return err
	}
	mid := (p.Qk) / 2
	hjb := &pde.HJBProblem{
		Grid: g, Time: tm, DiffH: 0.125, DiffQ: 50,
		DriftH:  func(_, h float64) float64 { return 5 - h },
		DriftQ:  func(_, x float64) float64 { return -p.Qk * x },
		Control: func(_, _, _, dV float64) float64 { return engine.OptimalControl(p, dV) },
		Running: func(_, x, _, q float64) float64 { return 10 - x*x - 0.01*q },
	}
	fpk := &pde.FPKProblem{
		Grid: g, Time: tm, DiffH: 0.125, DiffQ: 50,
		DriftH: func(_, h float64) float64 { return 5 - h },
		DriftQ: func(_, _, q float64) float64 { return -0.5 * (q - mid) },
	}
	init, err := pde.GaussianDensity(g, 5, 1, 0.7*p.Qk, 0.1*p.Qk)
	if err != nil {
		return err
	}
	hs, fs := pde.NewHJBSolution(g, tm), pde.NewFPKSolution(g, tm)
	root := tr.begin(tracePDE, 0, "ladder.pde")
	defer root.end("")
	for i := 0; i < ladderPDEReps; i++ {
		tr.call(tracePDE, root.id(), "pde.SolveHJBInto", func() { err = pde.SolveHJBInto(ws, sch, hjb, hs) })
		if err != nil {
			return err
		}
		tr.call(tracePDE, root.id(), "pde.SolveFPKInto", func() { err = pde.SolveFPKInto(ws, sch, fpk, init, fs) })
		if err != nil {
			return err
		}
	}
	return nil
}

// ladderEngine times a cold engine.Solve of each probe workload, a warm
// Session solve of the same workload after a 5% demand drift (as the next
// market epoch would pose it), and the gob codec of the result.
func ladderEngine(tr *tracer, in layerIn, sess *engine.Session, out *layerOut) ([]*engine.Equilibrium, error) {
	root := tr.begin(traceEngine, 0, "ladder.engine")
	defer root.end("")
	var eqs []*engine.Equilibrium
	for _, w := range in.probe {
		var (
			eq  *engine.Equilibrium
			err error
		)
		allocs := allocsPer(1, func() {
			tr.call(traceEngine, root.id(), "engine.Solve", func() { eq, err = engine.Solve(in.cfg, w) })
		})
		if err = solved(eq, err); err != nil {
			return nil, err
		}
		out.solveIters = append(out.solveIters, float64(eq.Iterations))
		out.solveAllocs = append(out.solveAllocs, allocs)
		drift := w
		drift.Requests *= 1.05
		var warm *engine.Equilibrium
		tr.call(traceEngine, root.id(), "engine.Session.Solve", func() { warm, err = sess.Solve(drift, eq) })
		if err = solved(warm, err); err != nil {
			return nil, err
		}
		eqs = append(eqs, eq)
	}
	var blob []byte
	for i := 0; i < ladderCodecReps; i++ {
		var err error
		tr.call(traceEngine, root.id(), "engine.MarshalEquilibrium", func() { blob, err = engine.MarshalEquilibrium(eqs[0]) })
		if err != nil {
			return nil, err
		}
		tr.call(traceEngine, root.id(), "engine.UnmarshalEquilibrium", func() { _, err = engine.UnmarshalEquilibrium(blob) })
		if err != nil {
			return nil, err
		}
	}
	out.blobBytes = len(blob)
	return eqs, nil
}

// ladderStore writes the probe equilibria to a fresh store, reopens it (the
// recovery scan) and reads them back.
func ladderStore(tr *tracer, in layerIn, eqs []*engine.Equilibrium) error {
	root := tr.begin(traceStore, 0, "ladder.store")
	defer root.end("")
	dir := filepath.Join(in.dir, "ladder-store")
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	keys := make([]string, len(eqs))
	for i, eq := range eqs {
		blob, err := engine.MarshalEquilibrium(eq)
		if err != nil {
			return errors.Join(err, st.Close())
		}
		keys[i] = engine.CacheKey(in.cfg, in.probe[i])
		tr.call(traceStore, root.id(), "store.Put", func() { st.Put(keys[i], blob); st.Flush() })
	}
	if err := st.Close(); err != nil {
		return err
	}
	tr.call(traceStore, root.id(), "store.Open", func() { st, err = store.Open(store.Config{Dir: dir}) })
	if err != nil {
		return err
	}
	for i := 0; i < ladderStoreReps; i++ {
		for _, k := range keys {
			var ok bool
			tr.call(traceStore, root.id(), "store.Get", func() { _, ok = st.Get(k) })
			if !ok {
				return errors.Join(fmt.Errorf("stored key %s not found", k), st.Close())
			}
		}
	}
	return st.Close()
}

// ladderRungs drives one answer from every rung of the serving ladder over
// real HTTP, on a two-replica fleet with a store, the table and a one-entry
// LRU: a region point (surrogate), a new key at its owner (solve), the same
// again (cache), a second new key twice at once (solve and coalesced), the
// first key after the second evicted it from the LRU (store), and a new key
// at the replica that does not own it (peer). It then fetches that key from
// its owner directly through cluster.Fetch.
func ladderRungs(ctx context.Context, tr *tracer, in layerIn, table *surrogate.Table, hot region) (err error) {
	n := 0
	rs, err := startReplicas(ctx, 2, func(self string, members []string) serve.Config {
		n++
		return serve.Config{
			Obs: in.reg, CacheSize: 1, SurrogateTable: table,
			CacheDir: filepath.Join(in.dir, fmt.Sprintf("ladder-replica-%d", n)),
			Cluster:  cluster.Config{Self: self, Peers: members},
		}
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopReplicas(rs)) }()
	a, b := rs[0].url, rs[1].url
	view, err := cluster.New(cluster.Config{Self: a, Peers: []string{a, b}})
	if err != nil {
		return err
	}
	eps, err := traceEpochs(in.seed, 2, traceRequestsPerEpoch)
	if err != nil {
		return err
	}
	var ownA, ownB []engine.Workload
	for _, w := range distinct(in.cfg, append(append([]engine.Workload(nil), in.probe...), flatten(eps)...)) {
		if hot.contains(w) {
			continue
		}
		if _, self := view.Owner(engine.CacheKey(in.cfg, w)); self {
			ownA = append(ownA, w)
		} else {
			ownB = append(ownB, w)
		}
	}
	if len(ownA) < 2 || len(ownB) < 1 {
		return fmt.Errorf("no keys for the rung ladder")
	}
	conns := newConns(2, []string{a, b}, in.g)
	defer closeConns(conns)
	// Each body gets its own identity below every body id of the traffic.
	point := hot.inside(rand.New(rand.NewSource(in.seed+1)), 1)[0]
	reqs := make(map[string]request)
	for i, w := range []engine.Workload{point, ownA[0], ownA[1], ownB[0]} {
		reqs[engine.CacheKey(in.cfg, w)] = request{id: rungBodyID - i, body: bodyOf(w)}
	}
	reqOf := func(w engine.Workload) request { return reqs[engine.CacheKey(in.cfg, w)] }
	send := func(c *conn, w engine.Workload) { tr.request(ctx, c, reqOf(w)) }
	send(conns[0], point)
	send(conns[0], ownA[0])
	send(conns[0], ownA[0])
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			send(c, ownA[1])
		}(c)
	}
	wg.Wait()
	rs[0].srv.Store().Flush()
	send(conns[0], ownA[0])
	send(conns[0], ownB[0])

	wl, err := json.Marshal(ownB[0])
	if err != nil {
		return err
	}
	preq := cluster.PeerRequest{Solver: solverDoc, Workload: wl, Key: engine.CacheKey(in.cfg, ownB[0])}
	root := tr.begin(traceRungs, 0, "ladder.cluster")
	defer root.end("")
	for i := 0; i < ladderCodecReps; i++ {
		tr.call(traceRungs, root.id(), "cluster.Fetch", func() { _, _, err = view.Fetch(ctx, b, preq) })
		if err != nil {
			return err
		}
	}
	return nil
}

// ladderMarket times MFG-CP strategy determination for two epochs of the
// seed's trace at the market's demand scale (the second, warm-started, is
// the one reported) and the per-epoch cost of the same market under the RR
// policy, which steps the market without solving.
func ladderMarket(ctx context.Context, tr *tracer, in layerIn, out *layerOut) error {
	p := mec.Default()
	m, err := setupMarket(in.seed)
	if err != nil {
		return err
	}
	base := m.config(policy.NewRR(), 2, nil)
	eps, err := traceEpochs(m.seed, 2, base.RequestsPerEDP)
	if err != nil {
		return err
	}
	catalog, err := mec.NewCatalog(p)
	if err != nil {
		return err
	}
	pol := policy.NewMFGCP()
	root := tr.begin(tracePolicy, 0, "ladder.policy")
	for e, ws := range eps {
		reqs := make([]float64, len(ws))
		for k, w := range ws {
			reqs[k] = w.Requests
		}
		if err := catalog.UpdatePopularity(reqs); err != nil {
			return err
		}
		ec := &policy.EpochContext{Params: p, Catalog: catalog, Workloads: ws, Solver: base.Solver,
			Epoch: e, Seed: m.seed, M: p.M, Ctx: ctx}
		name := "policy.MFGCP.Prepare(cold)"
		if e > 0 {
			name = "policy.MFGCP.Prepare"
		}
		tr.call(tracePolicy, root.id(), name, func() { err = pol.Prepare(ec) })
		if err != nil {
			return err
		}
	}
	root.end("")

	root = tr.begin(traceSim, 0, "ladder.sim")
	defer root.end("")
	out.rrEpochs = base.Epochs
	out.rrEpochAllocs = allocsPer(1, func() {
		tr.call(traceSim, root.id(), "sim.RunContext(RR)", func() { _, err = sim.RunContext(ctx, base) })
	}) / float64(base.Epochs)
	return err
}

// probeBodies replays the traced bodies through the request-path functions
// the daemon calls on each: decode, cache key, LRU lookup, surrogate lookup
// and ring ownership, each in a span under the body's trace identifier.
func probeBodies(tr *tracer, in layerIn, table *surrogate.Table, eqs []*engine.Equilibrium, out *layerOut) error {
	base := engine.DefaultConfig(mec.Default())
	lru, err := engine.NewCache(len(eqs))
	if err != nil {
		return err
	}
	for i, eq := range eqs {
		lru.Put(obs.Nop, engine.CacheKey(in.cfg, in.probe[i]), eq)
	}
	members := make([]string, fleetReplicas)
	for i := range members {
		members[i] = fmt.Sprintf("http://replica-%d", i)
	}
	ring, err := cluster.New(cluster.Config{Self: members[0], Peers: members})
	if err != nil {
		return err
	}
	for i, r := range in.bodies {
		if i == ladderBodies {
			break
		}
		root := tr.begin(r.id, 0, "probe")
		var (
			cfg engine.Config
			w   engine.Workload
			key string
		)
		tr.call(r.id, root.id(), "engine.decode", func() {
			var req serve.SolveRequest
			if err = json.Unmarshal(r.body, &req); err != nil {
				return
			}
			if cfg, err = engine.DecodeConfig(req.Solver, base); err != nil {
				return
			}
			w, err = engine.DecodeWorkload(req.Workload)
		})
		if err != nil {
			return err
		}
		tr.call(r.id, root.id(), "engine.CacheKey", func() { key = engine.CacheKey(cfg, w) })
		tr.call(r.id, root.id(), "engine.Cache.Get", func() { lru.Get(obs.Nop, key) })
		tr.call(r.id, root.id(), "surrogate.Lookup", func() { table.Lookup(cfg, w) })
		tr.call(r.id, root.id(), "cluster.Owner", func() { ring.Owner(key) })
		root.end("")
		if i == 0 {
			out.cacheKeyAlloc = allocsPer(ladderAllocReps, func() { engine.CacheKey(cfg, w) })
		}
	}
	return nil
}

// solved accepts a solve that returned an equilibrium, converged or not: a
// non-converged answer is still served, and timed like any other.
func solved(eq *engine.Equilibrium, err error) error {
	if errors.Is(err, engine.ErrNotConverged) && eq != nil {
		return nil
	}
	return err
}

// allocsPer returns the heap allocations of one call of f, averaged over n
// calls. The daemon is idle while the ladder runs, so the count is f's.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
