package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares,
// end-to-end and per-layer.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSelfTest runs every workload briefly, untraced and traced, on two
// seeds, and checks that each prints exactly the metrics BENCHMARK.json
// declares, with their units, that every check passes, and that the rung
// shares of each serving workload sum to one.
func TestSelfTest(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			for _, seed := range []int64{1, 2} {
				o := options{workload: w, seed: seed, seconds: 1, trace: traced, out: t.TempDir(), short: true}
				res, _, violations, err := run(context.Background(), o, time.Now())
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(violations) > 0 {
					t.Errorf("%s seed %d trace %v: correct %v, %d of %d failed: %v",
						w, seed, traced, res.Correct, res.Failed, res.Attempted, violations)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for name, unit := range want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("%s trace %v: metric %s printed as %+v (present %v), declared unit %s", w, traced, name, got, ok, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics printed, %d declared", w, traced, len(res.Metrics), len(want))
				}
				if traced && w != "market" {
					var sum float64
					for _, s := range sources {
						sum += res.Metrics["serve.source."+string(s)+".frac"].Value
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("%s seed %d: rung shares sum to %g", w, seed, sum)
					}
				}
			}
		}
	}
}

// TestSeedsChangeBodies sets every serving workload up on two seeds and
// checks that its first requests differ, and that the market runs another
// market seed.
func TestSeedsChangeBodies(t *testing.T) {
	ctx := context.Background()
	for name, spec := range servingSpecs {
		var first [2][]byte
		for i, seed := range []int64{1, 2} {
			env, err := spec.setup(ctx, seed, t.TempDir(), newGate())
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for j := 0; j < 20; j++ {
				for _, r := range env.next() {
					first[i] = append(first[i], r.body...)
				}
			}
			if err := env.close(); err != nil {
				t.Fatal(err)
			}
		}
		if bytes.Equal(first[0], first[1]) {
			t.Errorf("%s: seeds 1 and 2 send the same bodies", name)
		}
	}
	if marketSeed(1) == marketSeed(2) {
		t.Error("market: seeds 1 and 2 run the same market")
	}
}
