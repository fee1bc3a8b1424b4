// Command vspbench is the repository's benchmark. It runs one named
// workload against the reservation service on loopback listeners inside
// this process, checks that the service's outputs are correct, and prints
// every metric by name and unit. Inputs come from -seed alone.
//
//	vspbench --workload batch-solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics listed in BENCHMARK.json; with --trace 1 the run is made twice,
// untraced and then traced, and the last line carries the per-layer
// metrics. Earlier lines record the machine, the seed, the workload's
// reason for existing and every other figure the run measured. The
// benchmark reads BENCHMARK.json from the working directory, which must
// be the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workDir holds everything a run writes: WAL directories and span files.
const workDir = ".bench_build"

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one pass over a workload measured.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	// notes holds facts that are not metrics: gate outcomes,
	// reconciliation checks, the span file path.
	notes map[string]any
	// spans is what a traced pass recorded.
	spans []span
	// failures lists the correctness gates the pass failed.
	failures []string
}

// fail records a failed correctness gate; the pass goes on measuring.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// config is what a workload needs to know about the run.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// dir is a fresh directory the workload may write into.
	dir string
}

// runner runs one pass of a workload. A returned error means the run could not be
// made or a correctness gate failed; either way the run has no result.
type runner func(cfg config) (*report, error)

var workloads = map[string]runner{
	"batch-solve":    batchSolve,
	"intake-durable": intakeDurable,
	"sharded-flash":  shardedFlash,
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vspbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bench(*name, *seed, *seconds, *trace, stdout); err != nil {
		fmt.Fprintln(stderr, "vspbench:", err)
		return 1
	}
	return 0
}

func bench(name string, seed int64, seconds, trace int, stdout io.Writer) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be ≥1 and --trace 0 or 1")
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	why := "not listed in BENCHMARK.json"
	for _, w := range sp.Workloads {
		if w.Name == name {
			why = w.Why
		}
	}
	wl := workloads[name]
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{
		"workload": name, "why": why, "seed": seed, "seconds": seconds, "trace": trace,
		"system_under_test": "server.Server and gateway.Gateway in this process on loopback listeners",
		"machine":           fingerprint(dir),
	}); err != nil {
		return err
	}

	cfg := config{seed: seed, seconds: time.Duration(seconds) * time.Second, dir: dir}
	rep, err := pass(wl, cfg, "untraced")
	if err != nil {
		return err
	}
	want := sp.EndToEnd
	if trace == 1 {
		untraced := rep
		cfg.traced = true
		if rep, err = pass(wl, cfg, "traced"); err != nil {
			return err
		}
		rep.failures = append(untraced.failures, rep.failures...)
		base, traced := untraced.metrics["latency_p50_ms"].Value, rep.metrics["latency_p50_ms"].Value
		rep.set("trace.overhead_ratio", "ratio", traced/base-1)
		spans := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(spans, rep.spans); err != nil {
			return err
		}
		rep.notes["spans"] = spans
		want = sp.PerLayer
	}
	rep.notes["failed_gates"] = rep.failures
	if err := enc.Encode(map[string]any{"detail": sortedMetrics(rep.metrics), "notes": rep.notes}); err != nil {
		return err
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) was not measured", m.Name, m.Unit)
		}
		out[m.Name] = got
	}
	correct := len(rep.failures) == 0
	if err := enc.Encode(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	}); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("correctness gates failed: %v", rep.failures)
	}
	return nil
}

// pass runs the workload once and labels a failure with the pass.
func pass(wl runner, cfg config, label string) (*report, error) {
	rep, err := wl(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w", label, err)
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("%s pass attempted nothing", label)
	}
	return rep, nil
}

// sortedMetrics orders metrics by name for a stable detail line.
func sortedMetrics(ms map[string]metric) []map[string]any {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]map[string]any, len(names))
	for i, n := range names {
		out[i] = map[string]any{"name": n, "value": ms[n].Value, "unit": ms[n].Unit}
	}
	return out
}
