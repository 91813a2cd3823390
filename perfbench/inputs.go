package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/surrogate"
	"repro/internal/trace"
)

// solverDoc is the Solver document of every serving body: the market grid
// (NH 9, NQ 41, Steps 60) that sim.DefaultConfig solves every content on.
// README.md gives the measured reason for not using the daemon's default.
var solverDoc = json.RawMessage(`{"NH":9,"NQ":41,"Steps":60}`)

// traceRequestsPerEpoch is the trace request volume per epoch the serving
// bodies derive from, as in `mfgcp loadgen`.
const traceRequestsPerEpoch = 2000

// solverConfig is the configuration the daemon resolves every serving body
// to: its defaults with solverDoc merged on.
func solverConfig() (engine.Config, error) {
	return engine.DecodeConfig(solverDoc, engine.DefaultConfig(mec.Default()))
}

// bodyOf renders the /v1/solve document of one workload.
func bodyOf(w engine.Workload) []byte {
	b, err := json.Marshal(struct {
		Solver   json.RawMessage
		Workload engine.Workload
	}{solverDoc, w})
	if err != nil {
		panic(err) // a struct of finite floats always marshals
	}
	return b
}

// traceSeed is the generator seed of the synthetic viewing trace every
// workload derives from, as `mfgcp loadgen` and `mfgcp market` default to.
// The benchmark seed varies the demand drawn from it, not the trace itself:
// the traces of different generator seeds differ in how hard their
// equilibria are to solve, which would move every metric with the seed.
const traceSeed = 1

// referenceTrace generates the synthetic viewing trace.
func referenceTrace() (*trace.Dataset, error) {
	gen := trace.DefaultGenConfig()
	gen.K = mec.Default().K
	gen.Seed = traceSeed
	return trace.Generate(gen)
}

// traceEpochs derives the per-content workloads of epochs trace epochs,
// indexed [epoch][content], at requestsPerEpoch, with the per-epoch demand
// noise drawn from seed.
func traceEpochs(seed int64, epochs int, requestsPerEpoch float64) ([][]engine.Workload, error) {
	p := mec.Default()
	ds, err := referenceTrace()
	if err != nil {
		return nil, err
	}
	ews, err := trace.BuildWorkloads(ds, p, epochs, requestsPerEpoch, seed)
	if err != nil {
		return nil, err
	}
	out := make([][]engine.Workload, epochs)
	for e := range ews {
		out[e] = make([]engine.Workload, p.K)
		for k := range out[e] {
			if out[e][k], err = ews[e].Workload(k); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// region is the part of the workload space the solve-hot table covers: a
// Requests × Pop rectangle at one frozen Timeliness.
type region struct {
	requests, pop surrogate.AxisSpec
	timeliness    float64
}

// hotEpochs is how many trace epochs the hot region spans.
const hotEpochs = 6

// hotRegion returns the region the first hotEpochs epochs of one trace
// content occupy: the first content, in catalogue order, whose region has
// width on both free axes and a load worth caching. The seed draws the
// demand noise, so it moves the region's edges but not which content it
// covers; another content would change the cost of building the table. A
// content's Timeliness is the same in every epoch, so the region freezes it.
func hotRegion(seed int64) (region, error) {
	eps, err := traceEpochs(seed, hotEpochs, traceRequestsPerEpoch)
	if err != nil {
		return region{}, err
	}
	for k := range eps[0] {
		r := region{
			requests:   surrogate.AxisSpec{Min: eps[0][k].Requests, Max: eps[0][k].Requests, N: 2},
			pop:        surrogate.AxisSpec{Min: eps[0][k].Pop, Max: eps[0][k].Pop, N: 2},
			timeliness: eps[0][k].Timeliness,
		}
		for _, ep := range eps {
			w := ep[k]
			r.requests.Min, r.requests.Max = min(r.requests.Min, w.Requests), max(r.requests.Max, w.Requests)
			r.pop.Min, r.pop.Max = min(r.pop.Min, w.Pop), max(r.pop.Max, w.Pop)
		}
		// A region needs width on both free axes and a load worth caching.
		if r.requests.Max > r.requests.Min && r.pop.Max > r.pop.Min && r.requests.Min >= 10 {
			return r, nil
		}
	}
	return region{}, fmt.Errorf("seed %d: no trace content spans a hot region", seed)
}

// inside returns n seeded workloads spread over the region.
func (r region) inside(rng *rand.Rand, n int) []engine.Workload {
	out := make([]engine.Workload, n)
	for i := range out {
		out[i] = engine.Workload{
			Requests:   r.requests.Min + rng.Float64()*(r.requests.Max-r.requests.Min),
			Pop:        r.pop.Min + rng.Float64()*(r.pop.Max-r.pop.Min),
			Timeliness: r.timeliness,
		}
	}
	return out
}

// traceBox is the part of the workload space trace bodies occupy: the
// (Requests, Pop, Timeliness) ranges of `mfgcp loadgen`'s bodies for trace
// seed 1 over 6 epochs. Keys drawn uniformly from it pose the same mix of
// difficulty for every seed.
var traceBox = [3][2]float64{{0, 837}, {0, 0.42}, {3.8, 5.0}}

// drawBox draws one workload uniformly from traceBox.
func drawBox(rng *rand.Rand) engine.Workload {
	var v [3]float64
	for i, r := range traceBox {
		v[i] = r[0] + rng.Float64()*(r[1]-r[0])
	}
	return engine.Workload{Requests: v[0], Pop: v[1], Timeliness: v[2]}
}

// contains reports whether the table built over r could answer w.
func (r region) contains(w engine.Workload) bool {
	return surrogate.Quantise(w.Timeliness) == surrogate.Quantise(r.timeliness) &&
		w.Requests >= r.requests.Min && w.Requests <= r.requests.Max &&
		w.Pop >= r.pop.Min && w.Pop <= r.pop.Max
}

// distinct returns ws without repeated cache keys, in order.
func distinct(cfg engine.Config, ws []engine.Workload) []engine.Workload {
	seen := make(map[string]bool, len(ws))
	var out []engine.Workload
	for _, w := range ws {
		k := engine.CacheKey(cfg, w)
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	return out
}

// flatten lists the workloads of every epoch in epoch, then content, order.
func flatten(eps [][]engine.Workload) []engine.Workload {
	var out []engine.Workload
	for _, ep := range eps {
		out = append(out, ep...)
	}
	return out
}
