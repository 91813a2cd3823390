package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/surrogate"
)

// Workload sizes. README.md explains why each workload exists.
const (
	coldLRU = 32 // solve-cold LRU entries: full early, so memory stays flat

	hotInside     = 16  // distinct solve-hot bodies inside the table's region
	hotWorkingSet = 12  // distinct solve-hot bodies outside it, warmed into the store
	hotLRU        = 4   // solve-hot LRU entries, well below the working set
	hotInsideFrac = 0.3 // share of solve-hot requests inside the region
	hotZipfS      = 3.5 // skew of the repeats outside the region

	fleetReplicas = 3
	fleetEpochs   = 40 // trace epochs fleet-spray replays in order
	fleetLRU      = 32 // LRU entries per replica: full early, so memory stays flat
	fleetHopLag   = 4  // keys between one hop of a key and its next
)

// replica is one in-process serve daemon on a loopback listener.
type replica struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startReplicas starts n daemons; cfgFor builds each one's configuration
// from its own URL and the member list. It returns once all are ready.
func startReplicas(ctx context.Context, n int, cfgFor func(self string, members []string) serve.Config) ([]*replica, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	var rs []*replica
	for i, ln := range lns {
		srv, err := serve.New(cfgFor(urls[i], urls))
		if err != nil {
			closeListeners(lns[i:])
			return nil, errors.Join(err, stopReplicas(rs))
		}
		rctx, cancel := context.WithCancel(context.Background())
		r := &replica{srv: srv, url: urls[i], cancel: cancel, done: make(chan error, 1)}
		go func() { r.done <- srv.Serve(rctx, ln) }()
		rs = append(rs, r)
	}
	if err := waitReady(ctx, urls); err != nil {
		return nil, errors.Join(err, stopReplicas(rs))
	}
	return rs, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// stopReplicas drains every replica and waits until each has stopped.
func stopReplicas(rs []*replica) error {
	for _, r := range rs {
		r.cancel()
	}
	var errs []error
	for _, r := range rs {
		errs = append(errs, <-r.done)
	}
	return errors.Join(errs...)
}

func urlsOf(rs []*replica) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.url
	}
	return out
}

// servingEnv is one set-up serving workload, ready for its first timed
// request.
type servingEnv struct {
	replicas []*replica
	reg      *obs.Registry
	next     stream           // the timed traffic
	table    *surrogate.Table // solve-hot's tier-0 table
	probe    []engine.Workload
	dir      string
}

func (e *servingEnv) close() error {
	err := stopReplicas(e.replicas)
	return errors.Join(err, os.RemoveAll(e.dir))
}

// setupFunc builds one serving workload from its seed in dir. Answers sent
// during set-up pass through g like timed ones.
type setupFunc func(ctx context.Context, seed int64, dir string, g *gate) (*servingEnv, error)

// setupCold: one replica with the disk store and no table; every key is new,
// drawn from traceBox, and every fourth arrives as a pair.
func setupCold(ctx context.Context, seed int64, dir string, _ *gate) (*servingEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	probe := []engine.Workload{drawBox(rng), drawBox(rng), drawBox(rng)}
	reg := obs.NewRegistry(nil)
	rs, err := startReplicas(ctx, 1, func(string, []string) serve.Config {
		return serve.Config{Obs: reg, CacheDir: filepath.Join(dir, "store"), CacheSize: coldLRU}
	})
	if err != nil {
		return nil, err
	}
	n := 0
	next := func() []request {
		w := probe[0]
		if n > 0 {
			w = drawBox(rng)
		}
		r := request{id: n, body: bodyOf(w)}
		n++
		if n%4 == 0 {
			return []request{r, r}
		}
		return []request{r}
	}
	return &servingEnv{replicas: rs, reg: reg, next: next, probe: probe, dir: dir}, nil
}

// setupHot: one replica with a table over the region its in-region traffic
// occupies and a store warmed with its working set, drawn from traceBox,
// behind an LRU far smaller than that set. No timed key is cold.
func setupHot(ctx context.Context, seed int64, dir string, g *gate) (*servingEnv, error) {
	cfg, err := solverConfig()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry(nil)
	hot, err := hotRegion(seed)
	if err != nil {
		return nil, err
	}
	table, err := buildTable(ctx, cfg, hot)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	inside := hot.inside(rng, hotInside)
	// The working set lies off the table's frozen Timeliness, so outside it.
	outside := make([]engine.Workload, hotWorkingSet)
	for i := range outside {
		outside[i] = drawBox(rng)
	}

	rs, err := startReplicas(ctx, 1, func(string, []string) serve.Config {
		return serve.Config{Obs: reg, CacheDir: filepath.Join(dir, "store"), CacheSize: hotLRU, SurrogateTable: table}
	})
	if err != nil {
		return nil, err
	}
	env := &servingEnv{replicas: rs, reg: reg, table: table, probe: outside[:3], dir: dir}
	reqs := make([]request, 0, len(inside)+len(outside))
	for i, w := range append(append([]engine.Workload(nil), inside...), outside...) {
		reqs = append(reqs, request{id: i, body: bodyOf(w)})
	}
	if err := warm(ctx, urlsOf(rs), g, reqs[len(inside):]); err != nil {
		return nil, errors.Join(err, env.close())
	}
	rs[0].srv.Store().Flush()

	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(outside)-1))
	env.next = func() []request {
		if rng.Float64() < hotInsideFrac {
			return []request{reqs[rng.Intn(len(inside))]}
		}
		return []request{reqs[len(inside)+int(zipf.Uint64())]}
	}
	return env, nil
}

// setupFleet: three replicas on a static ring, no store and no table. Trace
// epochs arrive in order and every key is sent to every member in turn.
func setupFleet(ctx context.Context, seed int64, dir string, _ *gate) (*servingEnv, error) {
	cfg, err := solverConfig()
	if err != nil {
		return nil, err
	}
	eps, err := traceEpochs(seed, fleetEpochs, traceRequestsPerEpoch)
	if err != nil {
		return nil, err
	}
	ws := distinct(cfg, flatten(eps))
	reg := obs.NewRegistry(nil)
	rs, err := startReplicas(ctx, fleetReplicas, func(self string, members []string) serve.Config {
		return serve.Config{Obs: reg, CacheSize: fleetLRU, Cluster: cluster.Config{Self: self, Peers: members}}
	})
	if err != nil {
		return nil, err
	}
	// Step n sends key n/fleetReplicas − hop·fleetHopLag to member
	// (key + hop) mod fleetReplicas, hop = n mod fleetReplicas: a key's later
	// hops trail its first by whole steps, so they find the owner's answer
	// ready and measure peer fill and cache hits, not the first solve.
	n := 0
	next := func() []request {
		for {
			i, hop := n/fleetReplicas-(n%fleetReplicas)*fleetHopLag, n%fleetReplicas
			n++
			if i >= 0 {
				i %= len(ws)
				return []request{{id: i, body: bodyOf(ws[i]), target: (i + hop) % fleetReplicas}}
			}
		}
	}
	return &servingEnv{replicas: rs, reg: reg, next: next, probe: ws[:3], dir: dir}, nil
}

// buildTable solves the surrogate table over r: two nodes on each free axis.
func buildTable(ctx context.Context, cfg engine.Config, r region) (*surrogate.Table, error) {
	return surrogate.Build(ctx, surrogate.BuildConfig{
		Config:     cfg,
		Requests:   r.requests,
		Pop:        r.pop,
		Timeliness: surrogate.AxisSpec{Min: r.timeliness, N: 1},
	})
}

// warm sends every request once, spread over one connection per CPU, and
// fails unless every answer is a correct 200.
func warm(ctx context.Context, targets []string, g *gate, reqs []request) error {
	conns := newConns(clientConns(), targets, g)
	defer closeConns(conns)
	jobs := make(chan request, len(reqs))
	for _, r := range reqs {
		jobs <- r
	}
	close(jobs)
	var (
		bad atomic.Int64
		wg  sync.WaitGroup
	)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for r := range jobs {
				if !c.send(ctx, r).ok {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("store warm-up: %d of %d requests failed", n, len(reqs))
	}
	return nil
}
