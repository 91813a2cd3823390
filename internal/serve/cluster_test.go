package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// fleetReplica is one in-process member of a test fleet.
type fleetReplica struct {
	base string
	reg  *obs.Registry
	srv  *Server
}

// startFleet boots n serve.Servers wired into one consistent-hash fleet:
// every replica lists every listener's URL in its peer set. Returns the
// replicas in peer-list order; shutdown is registered on t.Cleanup.
func startFleet(t *testing.T, n int, mutate func(i int, cfg *Config)) []fleetReplica {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	replicas := make([]fleetReplica, n)
	for i := range replicas {
		cfg, reg := testConfig(t)
		cfg.Cluster = cluster.Config{
			Self:          peers[i],
			Peers:         peers,
			PeerTimeout:   10 * time.Second,
			ProbeInterval: 100 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		ln := listeners[i]
		go func() { done <- s.Serve(ctx, ln) }()
		t.Cleanup(func() { cancel(); <-done })
		replicas[i] = fleetReplica{base: peers[i], reg: reg, srv: s}
	}
	return replicas
}

// counterSum totals one counter across the fleet.
func counterSum(replicas []fleetReplica, name string) float64 {
	var sum float64
	for _, r := range replicas {
		sum += r.reg.Snapshot().Counters[name]
	}
	return sum
}

// splitOwnershipBodies returns n distinct solve bodies of which replicas[0]
// owns at least one and fails to own at least one other, judged on a ring
// built over the replicas' actual URLs. The listeners bind ephemeral ports,
// so ownership of any fixed body changes from run to run; choosing bodies by
// ownership keeps both routing paths of the first-asked replica exercised.
func splitOwnershipBodies(t *testing.T, replicas []fleetReplica, n int) []string {
	t.Helper()
	ring := cluster.NewRing(0)
	for _, r := range replicas {
		ring.Add(r.base)
	}
	solver := replicas[0].srv.cfg.Solver
	solver.Params = replicas[0].srv.cfg.Params
	var owned, other []string
	for req := 10; req < 210; req++ {
		body := fmt.Sprintf(`{"Workload": {"Requests": %d, "Pop": 0.3, "Timeliness": 3}}`, req)
		w := engine.Workload{Requests: float64(req), Pop: 0.3, Timeliness: 3}
		if ring.Owner(engine.CacheKey(solver, w)) == replicas[0].base {
			owned = append(owned, body)
		} else {
			other = append(other, body)
		}
		if len(owned) > 0 && len(other) > 0 && len(owned)+len(other) >= n {
			break
		}
	}
	if len(owned) == 0 || len(other) == 0 {
		t.Fatalf("no ownership split among candidate bodies: %d owned by replica 0, %d not", len(owned), len(other))
	}
	bodies := append([]string{owned[0], other[0]}, owned[1:]...)
	return append(bodies, other[1:]...)[:n]
}

// TestFleetExactlyOneColdSolvePerKey is the tentpole acceptance check: spray
// several unique workloads across every replica of a 3-member fleet and
// require (a) exactly one engine solve per unique key fleet-wide, (b) peer
// fills actually happening (peer_hit > 0), and (c) byte-identical equilibrium
// bodies from every replica regardless of which rung answered.
func TestFleetExactlyOneColdSolvePerKey(t *testing.T) {
	replicas := startFleet(t, 3, nil)

	const uniqueKeys = 4
	bodies := splitOwnershipBodies(t, replicas, uniqueKeys)

	// Each unique body visits every replica (mixed-target load): whichever
	// replica is asked first forwards to the key's owner, so the owner solves
	// once and everyone else fills from it.
	answers := make([][]byte, uniqueKeys)
	for i, body := range bodies {
		for j, r := range replicas {
			resp, data := postSolve(t, http.DefaultClient, r.base, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("body %d via replica %d: status %d body %s", i, j, resp.StatusCode, data)
			}
			stripped := bodyWithoutSource(t, data)
			if answers[i] == nil {
				answers[i] = stripped
			} else if !bytes.Equal(stripped, answers[i]) {
				t.Fatalf("body %d via replica %d: equilibrium differs:\n%s\nvs\n%s", i, j, stripped, answers[i])
			}
		}
	}

	if got := counterSum(replicas, "serve.solve.executed"); got != uniqueKeys {
		t.Errorf("fleet-wide serve.solve.executed = %g, want exactly %d (one cold solve per unique key)", got, uniqueKeys)
	}
	if got := counterSum(replicas, "cluster.peer_hit"); got == 0 {
		t.Error("cluster.peer_hit = 0: no request was filled from its ring owner")
	}
	if got := counterSum(replicas, "cluster.peer_miss"); got != 0 {
		t.Errorf("cluster.peer_miss = %g on a healthy fleet, want 0", got)
	}
	// Routing accounting: every local miss was either owned here or forwarded.
	owned, forwarded := counterSum(replicas, "cluster.owned"), counterSum(replicas, "cluster.forwarded")
	if owned == 0 || forwarded == 0 {
		t.Errorf("cluster.owned = %g, cluster.forwarded = %g: mixed-target load should exercise both paths", owned, forwarded)
	}
}

// TestFleetConcurrentMixedTargets hammers one identical workload at every
// replica concurrently: the owner's singleflight must collapse the fan-in to
// a single engine solve no matter how the requests interleave.
func TestFleetConcurrentMixedTargets(t *testing.T) {
	replicas := startFleet(t, 3, nil)
	const perReplica = 8
	body := `{"Workload": {"Requests": 42, "Pop": 0.5, "Timeliness": 2}}`

	var wg sync.WaitGroup
	errs := make(chan string, len(replicas)*perReplica)
	var mu sync.Mutex
	var reference []byte
	for _, r := range replicas {
		for i := 0; i < perReplica; i++ {
			wg.Add(1)
			go func(base string) {
				defer wg.Done()
				resp, data := postSolve(t, http.DefaultClient, base, body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d body %s", base, resp.StatusCode, data)
					return
				}
				stripped := bodyWithoutSource(t, data)
				mu.Lock()
				defer mu.Unlock()
				if reference == nil {
					reference = stripped
				} else if !bytes.Equal(stripped, reference) {
					errs <- fmt.Sprintf("%s: equilibrium differs", base)
				}
			}(r.base)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := counterSum(replicas, "serve.solve.executed"); got != 1 {
		t.Errorf("fleet-wide serve.solve.executed = %g under concurrent mixed-target load, want exactly 1", got)
	}
}

// TestFleetPeerAnswerPromoted: after a peer fill, the non-owner replica must
// answer repeats from its own LRU (source "cache") without another fill —
// promotion is what turns the fleet into one big cache instead of a proxy.
func TestFleetPeerAnswerPromoted(t *testing.T) {
	replicas := startFleet(t, 2, nil)
	body := `{"Workload": {"Requests": 9, "Pop": 0.33, "Timeliness": 1}}`

	// Find the non-owner: ask both replicas once, then look at who forwarded.
	for _, r := range replicas {
		if resp, data := postSolve(t, http.DefaultClient, r.base, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", r.base, resp.StatusCode, data)
		}
	}
	var nonOwner *fleetReplica
	for i := range replicas {
		if replicas[i].reg.Snapshot().Counters["cluster.peer_hit"] == 1 {
			nonOwner = &replicas[i]
		}
	}
	if nonOwner == nil {
		t.Fatal("no replica recorded a peer fill")
	}
	resp, data := postSolve(t, http.DefaultClient, nonOwner.base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d body %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decode solve body: %v", err)
	}
	if sr.Source != SourceCache {
		t.Errorf("repeat on the filled replica: source %q, want %q (promoted into LRU)", sr.Source, SourceCache)
	}
	if hits := nonOwner.reg.Snapshot().Counters["cluster.peer_hit"]; hits != 1 {
		t.Errorf("repeat triggered another peer fill: cluster.peer_hit = %g, want 1", hits)
	}
}
