package main

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/serve"
)

// TestGateFiresOnMutatedAnswer takes a real answer from a one-replica daemon,
// passes it through the gate, then feeds the gate mutated copies: a changed
// digit in the price series, a truncated series and an unknown source must
// each fail.
func TestGateFiresOnMutatedAnswer(t *testing.T) {
	ctx := context.Background()
	rs, err := startReplicas(ctx, 1, func(string, []string) serve.Config { return serve.Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stopReplicas(rs); err != nil {
			t.Error(err)
		}
	}()
	eps, err := traceEpochs(1, 1, traceRequestsPerEpoch)
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	c := newConns(1, urlsOf(rs), g)[0]
	defer c.client.CloseIdleConnections()
	data, status, err := c.post(ctx, request{id: 0, body: bodyOf(eps[0][0])})
	if err != nil || status != 200 {
		t.Fatalf("solve: status %d, %v", status, err)
	}
	if _, ok := g.checkSolve(0, data); !ok {
		t.Fatalf("gate rejected a real answer: %v", g.violations)
	}
	if _, ok := g.checkSolve(0, bytes.Replace(data, []byte(`"source":"solve"`), []byte(`"source":"cache"`), 1)); !ok {
		t.Fatalf("gate rejected the same answer from another rung: %v", g.violations)
	}

	i := bytes.Index(data, []byte(`"price":[`)) + len(`"price":[`)
	for data[i] < '0' || data[i] > '9' {
		i++
	}
	digit := data[i]
	mutations := map[string][]byte{
		"changed digit":    append(append(append([]byte(nil), data[:i]...), '0'+(digit-'0'+1)%10), data[i+1:]...),
		"truncated series": bytes.Replace(data, []byte(`"mean_control":[`), []byte(`"mean_control":[1,`), 1),
		"unknown source":   bytes.Replace(data, []byte(`"source":"solve"`), []byte(`"source":"oracle"`), 1),
	}
	for name, bad := range mutations {
		before := g.failures()
		if _, ok := g.checkSolve(0, bad); ok || g.failures() != before+1 {
			t.Errorf("%s: gate passed a mutated answer", name)
		}
	}
}

// TestGateFiresOnLooseSurrogateBound serves a real surrogate answer with its
// error bound shrunk a millionfold: the re-solve check must fail it.
func TestGateFiresOnLooseSurrogateBound(t *testing.T) {
	cfg, err := solverConfig()
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	table, err := buildTable(context.Background(), cfg, hot)
	if err != nil {
		t.Fatal(err)
	}
	point := hot.inside(rand.New(rand.NewSource(1)), 1)[0]
	sum, ok := table.Lookup(cfg, point)
	if !ok {
		t.Fatal("region point outside the table's trust region")
	}
	answers := []answer{{req: request{id: 0, body: bodyOf(point)}, ok: true, source: serve.SourceSurrogate, errorBound: sum.ErrorBound}}
	g := newGate()
	env := &servingEnv{table: table}
	if err := checkSurrogate(env, answers, g, options{seed: 1}); err != nil || g.failures() != 0 {
		t.Fatalf("honest bound failed: %v %v", err, g.violations)
	}
	answers[0].errorBound = sum.ErrorBound / 1e6
	if err := checkSurrogate(env, answers, g, options{seed: 1}); err != nil || g.failures() != 1 {
		t.Fatalf("shrunk bound passed: %v, %d failures", err, g.failures())
	}
}

// TestMarketCheckFiresOnDrift moves one ledger entry of a real market run
// past the tolerance and expects the reference check to fail.
func TestMarketCheckFiresOnDrift(t *testing.T) {
	m, err := setupMarket(1)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := m.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.check(l); err != nil {
		t.Fatalf("reference check failed on a real run: %v", err)
	}
	l.Trading *= 1 + 10*ledgerTol
	if m.check(l) == nil {
		t.Fatal("reference check passed a drifted ledger")
	}
}
