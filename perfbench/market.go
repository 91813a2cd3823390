package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// marketEpochs is the length of one market run; the timed window repeats
// whole runs.
const marketEpochs = 3

// marketSeeds is how many market seeds have a reference ledger: the market
// run of benchmark seed s uses market seed 1 + s mod marketSeeds.
const marketSeeds = 8

// ledgerTol is the relative tolerance of the market check against the
// reference ledger. The market is deterministic for a given build, so any
// drift beyond float reassociation in a later change shows.
const ledgerTol = 1e-6

// marketReference holds the mean per-EDP ledger of every market seed,
// computed by `perfbench -write-market-reference` at the commit that added
// the benchmark.
//
//go:embed market_reference.json
var marketReference []byte

// ledger is the population-mean account of one market run.
type ledger = sim.Ledger

func marketSeed(seed int64) int64 {
	m := seed % marketSeeds
	if m < 0 {
		m += marketSeeds
	}
	return 1 + m
}

// marketEnv is the set-up market workload: the configuration of one run.
type marketEnv struct {
	seed  int64
	trace *trace.Dataset
}

// setupMarket prepares the market of seed: the reference trace, and the
// market seed that draws the EDP population and its randomness.
func setupMarket(seed int64) (*marketEnv, error) {
	ds, err := referenceTrace()
	if err != nil {
		return nil, err
	}
	return &marketEnv{seed: marketSeed(seed), trace: ds}, nil
}

// config is one MFG-CP market run at the default mec params (M 300, K 20,
// 40 steps per epoch) on the market grid; rec receives its telemetry.
func (m *marketEnv) config(pol policy.Policy, epochs int, rec obs.Recorder) sim.Config {
	cfg := sim.DefaultConfig(mec.Default(), pol)
	cfg.Epochs = epochs
	cfg.Seed = m.seed
	cfg.Trace = m.trace
	cfg.Obs = rec
	return cfg
}

// run executes one MFG-CP market run and returns its mean ledger and the
// start and end of each epoch.
func (m *marketEnv) run(ctx context.Context) (ledger, []sample, error) {
	clock := &epochClock{}
	res, err := sim.RunContext(ctx, m.config(policy.NewMFGCP(), marketEpochs, clock))
	if err != nil {
		return ledger{}, nil, err
	}
	return res.MeanLedger(), clock.epochs, nil
}

// check compares a run's ledger with the reference of its seed.
func (m *marketEnv) check(got ledger) error {
	var refs map[string]ledger
	if err := json.Unmarshal(marketReference, &refs); err != nil {
		return fmt.Errorf("market reference: %w", err)
	}
	want, ok := refs[strconv.FormatInt(m.seed, 10)]
	if !ok {
		return fmt.Errorf("market reference has no seed %d", m.seed)
	}
	g, w := toArray(got), toArray(want)
	for i := range g {
		if d := math.Abs(g[i] - w[i]); !(d <= ledgerTol*math.Max(1, math.Abs(w[i]))) {
			return fmt.Errorf("market seed %d: ledger %+v, reference %+v", m.seed, got, want)
		}
	}
	return nil
}

func toArray(l ledger) [5]float64 {
	return [5]float64{l.Trading, l.Sharing, l.Placement, l.Staleness, l.ShareCost}
}

// writeMarketReference prints the reference ledgers of every market seed.
func writeMarketReference(ctx context.Context) error {
	refs := make(map[string]ledger, marketSeeds)
	for s := int64(0); s < marketSeeds; s++ {
		m, err := setupMarket(s)
		if err != nil {
			return err
		}
		l, _, err := m.run(ctx)
		if err != nil {
			return err
		}
		refs[strconv.FormatInt(m.seed, 10)] = l
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// epochClock is the recorder a market run reports to: it keeps the start
// and end of every epoch, from the sim.epoch span's start to the sim.epochs
// count that closes the epoch, and drops everything else.
type epochClock struct {
	mu     sync.Mutex
	start  time.Time
	epochs []sample
}

func (c *epochClock) Start(name string) obs.Span {
	if name == "sim.epoch" {
		c.mu.Lock()
		c.start = time.Now()
		c.mu.Unlock()
	}
	return obs.Span{}
}

func (c *epochClock) Add(name string, _ float64) {
	if name == "sim.epochs" {
		c.mu.Lock()
		c.epochs = append(c.epochs, sample{c.start, time.Now()})
		c.mu.Unlock()
	}
}

func (c *epochClock) Gauge(string, float64)      {}
func (c *epochClock) Observe(string, float64)    {}
func (c *epochClock) Event(string, ...slog.Attr) {}
func (c *epochClock) Enabled() bool              { return false }
