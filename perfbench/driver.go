package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// request is one POST /v1/solve the harness sends.
type request struct {
	id     int // body identity: equal ids carry equal documents
	body   []byte
	target int // fleet member index
}

// stream yields the next step of a workload's traffic: one request, or a
// pair of the same body to be sent on two connections at once.
type stream func() []request

// answer is the outcome of one sent request.
type answer struct {
	req        request
	ok         bool // 2xx that passed the gate
	gateFail   bool // 2xx that failed the gate
	source     serve.Source
	errorBound float64
	start, end time.Time
}

// conn is one client connection: requests on it are strictly sequential, so
// the harness never has more requests in flight than it has conns.
type conn struct {
	client  *http.Client
	targets []string
	gate    *gate
}

func newConns(n int, targets []string, g *gate) []*conn {
	out := make([]*conn, n)
	for i := range out {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = &conn{client: &http.Client{Transport: tr, Timeout: requestTimeout}, targets: targets, gate: g}
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// requestTimeout bounds one request; a request past it counts as failed.
const requestTimeout = 30 * time.Second

// send posts one request, reads the answer to its last byte and passes a 2xx
// through the gate.
func (c *conn) send(ctx context.Context, r request) answer {
	a := answer{req: r, start: time.Now()}
	data, status, err := c.post(ctx, r)
	a.end = time.Now()
	if err != nil || status/100 != 2 {
		return a
	}
	sum, ok := c.gate.checkSolve(r.id, data)
	a.ok, a.gateFail, a.source, a.errorBound = ok, !ok, sum.Source, sum.ErrorBound
	return a
}

func (c *conn) post(ctx context.Context, r request) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.targets[r.target]+"/v1/solve", bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// tally accumulates the answers of one phase.
type tally struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	gateFailed int64    // the failed answers that reached the gate
	samples    []sample // successful answers only
	answers    []answer
	lagMs      []float64 // open loop: how late the generator released each request
}

// sample is one timed unit of work: from when it was released to the
// harness's queue (closed loop: sent) to when it ended.
type sample struct{ from, end time.Time }

func (s sample) ms() float64 { return ms(s.end.Sub(s.from)) }

// add records one answer, released at from.
func (t *tally) add(a answer, from time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if a.gateFail {
		t.gateFailed++
	}
	if !a.ok {
		t.failed++
		return
	}
	t.samples = append(t.samples, sample{from, a.end})
	t.answers = append(t.answers, a)
}

// closedLoop runs one client per conn for d: each sends its next request only
// after its previous one completed. Pairs from the stream are queued back to
// back, so two idle clients send them together. It returns the phase's
// completion rate in requests per second.
func closedLoop(ctx context.Context, conns []*conn, next stream, d time.Duration, t *tally, tr *tracer) float64 {
	var (
		mu      sync.Mutex
		pending []request
		wg      sync.WaitGroup
	)
	take := func() request {
		mu.Lock()
		defer mu.Unlock()
		if len(pending) == 0 {
			pending = next()
		}
		r := pending[0]
		pending = pending[1:]
		return r
	}
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				a := tr.request(ctx, c, take())
				t.add(a, a.start)
			}
		}(c)
	}
	wg.Wait()
	return throughput(t.samples, start)
}

// drainLimit bounds how long an open-loop phase may run past its window
// while the queued requests are sent; requests still queued after it count
// as failed sends.
const drainLimit = 60 * time.Second

// openLoop releases requests on a fixed schedule of rate requests per second
// for d (a pair shares one due time and takes two schedule slots), into a
// queue the conns drain in order. Each answer is timed from the moment the
// generator released it into the queue, so a stall delays every request
// queued behind it and shows in the tail. The generator's own lateness past
// the due time goes to t.lagMs instead: Go timers wake on a 1 ms grid (the
// runtime's poller waits in whole milliseconds) and a busy host delays the
// wake-up by several more, which would bury sub-millisecond answers under
// the harness's clock. A late release does not shift the schedule; the
// requests due meanwhile follow at once.
func openLoop(ctx context.Context, conns []*conn, next stream, rate float64, d time.Duration, t *tally, tr *tracer) {
	type item struct {
		r        request
		released time.Time
	}
	queue := make(chan item, int(rate*d.Seconds())+4) // one slot per scheduled send
	ctx, cancel := context.WithTimeout(ctx, d+drainLimit)
	defer cancel()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for it := range queue {
				if ctx.Err() != nil {
					t.add(answer{req: it.r}, it.released) // never sent
					continue
				}
				a := tr.request(ctx, c, it.r)
				t.add(a, it.released)
			}
		}(c)
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var lag []float64
	for slot := 0; ; {
		due := start.Add(time.Duration(slot) * interval)
		if due.Sub(start) >= d || ctx.Err() != nil {
			break
		}
		time.Sleep(time.Until(due))
		released := time.Now()
		lag = append(lag, ms(released.Sub(due)))
		step := next()
		for _, r := range step {
			queue <- item{r: r, released: released}
		}
		slot += len(step)
	}
	close(queue)
	wg.Wait()
	t.mu.Lock()
	t.lagMs = append(t.lagMs, lag...)
	t.mu.Unlock()
}

// merge folds the phases' tallies into one.
func merge(ts ...*tally) *tally {
	out := &tally{}
	for _, t := range ts {
		out.attempted += t.attempted
		out.failed += t.failed
		out.gateFailed += t.gateFailed
		out.samples = append(out.samples, t.samples...)
		out.answers = append(out.answers, t.answers...)
		out.lagMs = append(out.lagMs, t.lagMs...)
	}
	return out
}

// Phases with many samples are cut into windows of at least minPerWindow
// samples, at most maxWindows, and a statistic is reported as its median
// over the windows, so a short disturbance of the host moves one window, not
// the result. A phase with fewer samples is one window.
const (
	minPerWindow = 200
	maxWindows   = 10
)

// overWindows splits the span from start to the last sample into equal
// windows, places each sample by key, and returns the median of stat over
// the windows.
func overWindows(ss []sample, start time.Time, key func(sample) time.Time, stat func(in []sample, span time.Duration) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	end := start
	for _, s := range ss {
		if k := key(s); k.After(end) {
			end = k
		}
	}
	n := min(max(len(ss)/minPerWindow, 1), maxWindows)
	span := end.Sub(start) / time.Duration(n)
	windows := make([][]sample, n)
	for _, s := range ss {
		i := 0
		if span > 0 {
			i = min(int(key(s).Sub(start)/span), n-1)
		}
		windows[i] = append(windows[i], s)
	}
	vals := make([]float64, n)
	for i, w := range windows {
		vals[i] = stat(w, span)
	}
	return median(vals)
}

// latencyQuantile is the q-quantile of the samples' latencies in ms, each
// sample placed by its release time.
func latencyQuantile(ss []sample, start time.Time, q float64) float64 {
	return overWindows(ss, start, func(s sample) time.Time { return s.from }, func(in []sample, _ time.Duration) float64 {
		lat := make([]float64, len(in))
		for i, s := range in {
			lat[i] = s.ms()
		}
		return quantile(lat, q)
	})
}

// throughput is the samples completed per second, each placed by its end.
func throughput(ss []sample, start time.Time) float64 {
	return overWindows(ss, start, func(s sample) time.Time { return s.end }, func(in []sample, span time.Duration) float64 {
		return float64(len(in)) / span.Seconds()
	})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It is 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// waitReady polls each target's /readyz until it answers 200.
func waitReady(ctx context.Context, targets []string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for _, t := range targets {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, t+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s not ready after 10s", t)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}
