// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload in process against the serving ladder, the fleet or the
// market loop, checks every answer, and prints its metrics by name and unit
// as the last line of its output:
//
//	bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it runs the workload again with spans around every client
// request and around calls into each layer, prints the per-layer metrics and
// writes the spans under -out. README.md describes the workloads, the
// metrics and how to read a traced run.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the host and settings a result was measured on; a
// comparison of results with different fingerprints is informational only.
type fingerprint struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go_version"`
	Grid       string `json:"solver_grid"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for scratch state and span files
	short    bool   // self-test: one set-up, one surrogate sample
}

var workloadNames = []string{"solve-cold", "solve-hot", "fleet-spray", "market"}

func main() {
	began := time.Now()
	var (
		o        options
		traceArg int
		writeRef bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&traceArg, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch state and span files")
	flag.BoolVar(&writeRef, "write-market-reference", false, "print the market reference ledgers and exit")
	flag.Parse()
	o.trace = traceArg == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if writeRef {
		if err := writeMarketReference(ctx); err != nil {
			fatal(err)
		}
		return
	}
	if !contains(workloadNames, o.workload) || o.seconds < 1 || (traceArg != 0 && traceArg != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, fp, violations, err := run(ctx, o, began)
	if err != nil {
		fatal(err)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	fmt.Fprintf(os.Stderr, "perfbench: error_rate %.4g (%d of %d failed)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fpLine, err := json.Marshal(map[string]fingerprint{"fingerprint": fp})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(fpLine))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload and assembles its result.
func run(ctx context.Context, o options, began time.Time) (result, fingerprint, []string, error) {
	fp := hostFingerprint(o)
	scratch := filepath.Join(o.out, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	g := newGate()
	var (
		m   map[string]metric
		t   *tally
		err error
	)
	if o.workload == "market" {
		m, t, err = runMarket(ctx, o, began, g, tr, scratch)
	} else {
		m, t, err = runServing(ctx, o, began, g, tr, scratch)
	}
	if err != nil {
		return result{}, fp, nil, err
	}
	if o.trace {
		if err := os.MkdirAll(filepath.Join(o.out, "traces"), 0o755); err != nil {
			return result{}, fp, nil, err
		}
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path, fp); err != nil {
			return result{}, fp, nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	} else {
		m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	// Checks that fail outside a request (a set-up answer, a surrogate sample,
	// a market ledger) are failures the tally has not counted yet.
	failed := t.failed + g.failures() - t.gateFailed
	return result{
		Correct:   g.failures() == 0,
		Attempted: max(t.attempted, 1),
		Failed:    failed,
		Metrics:   m,
	}, fp, g.violations, nil
}

// setUp runs build repeatedly, as the constants below decide, keeping the
// last instance and closing the others. It returns the median set-up time; the
// first set-up is timed from process start.
func setUp[E any](o options, began time.Time, build func(rep int) (E, error), closeEnv func(E) error) (E, float64, error) {
	var (
		times []float64
		env   E
	)
	for rep := 0; ; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = began
		}
		e, err := build(rep)
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if o.short || (len(times) >= minSetups && (sum(times) >= setupBudget || len(times) >= maxSetups)) {
			return e, median(times), nil
		}
		if err := closeEnv(e); err != nil {
			return env, 0, err
		}
		// Hand the closed instance's memory back, so that peak_rss_mb is the
		// peak of one instance, not of set-ups piled up by GC timing.
		debug.FreeOSMemory()
	}
}

// Set-up repetitions: at least minSetups, then more while they add up to
// less than setupBudget seconds, at most maxSetups.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 1.0
)

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// clientConns is the number of client connections: one per CPU.
func clientConns() int { return runtime.NumCPU() }

// hostFingerprint describes the host and the run's settings.
func hostFingerprint(o options) fingerprint {
	cfg, _ := solverConfig() // solverDoc is a valid constant: decoding it cannot fail
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Grid:       fmt.Sprintf("NH %d, NQ %d, Steps %d", cfg.NH, cfg.NQ, cfg.Steps),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

func cpuModel() string {
	return procField("/proc/cpuinfo", "model name")
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	// Linux always reports VmHWM in kB; elsewhere the field reads "unknown"
	// and the metric 0.
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// procField returns the value of the first "name: value" line of a /proc
// file, or "unknown".
func procField(path, name string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == name {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
