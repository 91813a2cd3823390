package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/serve"
)

// sources lists the serving-ladder rungs in ladder order; a 200 whose source
// is not one of them fails the gate.
var sources = []serve.Source{
	serve.SourceSurrogate, serve.SourceCache, serve.SourceStore,
	serve.SourcePeer, serve.SourceCoalesced, serve.SourceSolve,
}

// maxViolations bounds the violation messages kept for the report; every
// violation is still counted.
const maxViolations = 20

// gate is the correctness check every answer of a run passes through. A
// violation marks the run incorrect, counts as a failed request and makes the
// command exit non-zero.
type gate struct {
	mu         sync.Mutex
	exact      map[int][32]byte // body id → hash of its exact answer, source elided
	violations []string
	count      int64
}

func newGate() *gate { return &gate{exact: make(map[int][32]byte)} }

// fail records one violation.
func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
	if len(g.violations) < maxViolations {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

// failures is the number of violations so far.
func (g *gate) failures() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count
}

// checkSolve validates one 200 answer to the body with identity id: it must
// decode as a serve.SolveResponse with finite, equal-length, non-empty series
// and a known source, and an exact answer (every source but surrogate) must
// be byte-identical to every earlier exact answer for the same body, apart
// from the source field itself. It returns the decoded response and whether
// it passed.
func (g *gate) checkSolve(id int, data []byte) (serve.SolveResponse, bool) {
	var resp serve.SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		g.fail("body %d: undecodable 200: %v", id, err)
		return resp, false
	}
	if err := validSummary(&resp); err != nil {
		g.fail("body %d: %v", id, err)
		return resp, false
	}
	if resp.Source == serve.SourceSurrogate {
		return resp, true
	}
	sum := sha256.Sum256(bytes.Replace(data, []byte(`"source":"`+string(resp.Source)+`"`), []byte(`"source":""`), 1))
	g.mu.Lock()
	prev, seen := g.exact[id]
	if !seen {
		g.exact[id] = sum
	}
	g.mu.Unlock()
	if seen && prev != sum {
		g.fail("body %d: %s answer differs from an earlier exact answer", id, resp.Source)
		return resp, false
	}
	return resp, true
}

// validSummary checks the shape of one solve summary.
func validSummary(r *serve.SolveResponse) error {
	known := false
	for _, s := range sources {
		known = known || r.Source == s
	}
	if !known {
		return fmt.Errorf("unknown source %q", r.Source)
	}
	n := len(r.Time)
	if n == 0 {
		return fmt.Errorf("empty time series")
	}
	series := map[string][]float64{
		"time": r.Time, "price": r.Price, "mean_control": r.MeanControl,
		"mean_remaining": r.MeanRemaining, "sharer_frac": r.SharerFrac,
	}
	for name, s := range series {
		if len(s) != n {
			return fmt.Errorf("series %s has %d samples, time has %d", name, len(s), n)
		}
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("series %s sample %d is %g", name, i, v)
			}
		}
	}
	for _, v := range []float64{r.Residual, r.ErrorBound} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("diagnostic %g is not a finite non-negative number", v)
		}
	}
	if r.Source != serve.SourceSurrogate && r.ErrorBound != 0 {
		return fmt.Errorf("exact source %s carries error_bound %g", r.Source, r.ErrorBound)
	}
	return nil
}
