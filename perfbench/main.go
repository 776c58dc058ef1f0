// Command perfbench is the repository's benchmark: it runs one workload
// against the program (in process for the bare simulation, through the
// real nbody-serve and nbody-router binaries for the served workloads),
// checks the outputs, and prints every metric by name with its unit. The
// last line of standard output is the machine-readable result.
//
//	bash perfbench/run.sh --workload galaxy-1e4-serve --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is everything one workload run measured and checked.
type report struct {
	Metrics  map[string]metric    `json:"metrics"`
	Outcomes map[string]*Outcomes `json:"outcomes"`
	Checks   []check              `json:"checks"`
	Notes    []string             `json:"notes,omitempty"`
	Spans    []SpanSummary        `json:"spans,omitempty"`
}

func newReport() *report {
	return &report{Metrics: make(map[string]metric), Outcomes: make(map[string]*Outcomes)}
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) class(name string) *Outcomes {
	o := r.Outcomes[name]
	if o == nil {
		o = &Outcomes{}
		r.Outcomes[name] = o
	}
	return o
}

func (r *report) total() Outcomes {
	var t Outcomes
	for _, o := range r.Outcomes {
		t.add(*o)
	}
	return t
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// env is one benchmark run's settings and scratch space.
type env struct {
	root    string // checkout root
	binDir  string // the program's binaries, built by run.sh
	runDir  string // this run's logs, state dirs and trace
	seed    uint64
	seconds float64
	trace   bool
	tr      *Tracer // nil on untraced runs
	nproc   int
}

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) (*report, error){
	"galaxy-1e5-sim":   runSim,
	"galaxy-1e4-serve": runServe,
	"fleet-durable":    runFleet,
}

// spec is the part of BENCHMARK.json that says which metrics to emit.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// errIncorrect ends a run whose result was printed but a check failed.
var errIncorrect = errors.New("a correctness check failed")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errIncorrect) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 15, "measurement window per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
	)
	flag.Parse()
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	var sp spec
	raw, err := os.ReadFile(filepath.Join(absRoot, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	e := &env{
		root:    absRoot,
		binDir:  filepath.Join(absRoot, ".bench_build", "bin"),
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		nproc:   runtime.NumCPU(),
	}
	e.runDir = filepath.Join(absRoot, ".bench_build", "runs", fmt.Sprintf("%s-seed%d-trace%d-%d", *workload, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(e.runDir, "state"))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runWorkload(ctx, e)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if e.tr != nil {
		spans := e.tr.Spans()
		rep.Spans = summarize(spans)
		if err := writeSpans(filepath.Join(e.runDir, "spans.jsonl"), spans); err != nil {
			return err
		}
	}

	rep.set("failed_share", rep.total().failedShare(), "ratio")
	host := stampHost(ctx, e)
	printReport(*workload, e, host, rep)

	tot := rep.total()
	res := result{Correct: rep.correct(), Attempted: tot.Attempted - tot.Contention, Failed: tot.Shed + tot.Failed, Metrics: map[string]metric{}}
	want := sp.EndToEnd
	if e.trace {
		want = sp.PerLayer
	}
	for _, w := range want {
		m, ok := rep.Metrics[w.Name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", *workload, w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("%s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s is %v", w.Name, m.Value)
		}
		res.Metrics[w.Name] = m
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	entry := historyEntry{Key: host.key(), Time: time.Now().UTC().Format(time.RFC3339), Workload: *workload, Seed: *seed,
		Seconds: *seconds, Trace: e.trace, Host: host, Correct: res.Correct, Outcomes: tot, Metrics: rep.Metrics}
	if err := appendHistory(filepath.Join(e.root, "perfbench", "history.jsonl"), entry); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printReport(workload string, e *env, h hostStamp, r *report) {
	fmt.Printf("== perfbench %s seed=%d seconds=%g trace=%v\n", workload, e.seed, e.seconds, e.trace)
	fmt.Printf("host: commit=%s nproc=%d GOMAXPROCS=%d go=%s state_tmpfs=%v\n", h.Commit, h.NProc, h.GOMAXPROCS, h.GoVersion, h.StateTmpfs)
	fmt.Println("outcomes (attempted ok shed failed contention):")
	for _, name := range classNames(r.Outcomes) {
		o := r.Outcomes[name]
		fmt.Printf("  %-10s %6d %6d %5d %6d %6d\n", name, o.Attempted, o.OK, o.Shed, o.Failed, o.Contention)
	}
	tot := r.total()
	fmt.Printf("  %-10s %6d %6d %5d %6d %6d  failed_share=%.4g\n", "total", tot.Attempted, tot.OK, tot.Shed, tot.Failed, tot.Contention, tot.failedShare())
	fmt.Println("metrics:")
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if len(r.Spans) > 0 {
		fmt.Println("spans (count total_ms self_ms p50_ms):")
		for _, s := range r.Spans {
			fmt.Printf("  %-28s %6d %12.3f %12.3f %10.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs, s.P50Ms)
		}
	}
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	fmt.Println("checks:")
	for _, c := range r.Checks {
		v := "ok"
		if !c.OK {
			v = "FAILED"
		}
		fmt.Printf("  %-6s %s: %s\n", v, c.Name, c.Detail)
	}
}
