// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON record, so benchmark history can be committed and
// diffed (see the bench-json Makefile target, which writes
// BENCH_scheduler.json).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | benchjson -out BENCH.json
//
// When both BenchmarkHorizonAdvance and BenchmarkFullResolve appear in the
// input, the record also carries their ns/op ratio — the incremental
// scheduler's speedup over re-solving the whole batch at every epoch.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// CPU is the GOMAXPROCS the benchmark ran with (the -N name suffix),
	// so `-cpu 1,4` runs of the same benchmark stay distinguishable.
	CPU int `json:"cpu,omitempty"`
}

// Report is the JSON document benchjson emits.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU is the host's logical core count. A `-cpu 4` run on a
	// 1-core container sets GOMAXPROCS=4 without any hardware
	// parallelism, so the per-entry CPU field alone cannot tell a real
	// parallel measurement from goroutine-scheduling noise — this field
	// is what the derived-ratio gating below keys on.
	NumCPU int `json:"num_cpu"`
	// GOMAXPROCS is the default the benchmarks ran with wherever -cpu did
	// not override it (as seen by benchjson, which runs in the same
	// environment), and CPUModel the host's CPU model from /proc/cpuinfo,
	// "unknown" where that is unavailable. Together with NumCPU they name
	// the machine class a baseline is comparable with.
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPUModel   string      `json:"cpu_model"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// HorizonSpeedup is BenchmarkFullResolve's ns/op over
	// BenchmarkHorizonAdvance's: how much work the rolling-horizon
	// incremental extension saves vs. a full re-solve per epoch.
	HorizonSpeedup float64 `json:"horizon_speedup_vs_full_resolve,omitempty"`
	// Phase1ParallelSpeedup is BenchmarkSchedulePhase1's ns/op at -cpu 1
	// over its ns/op at the highest -cpu in the input: the wall-clock win
	// of the parallel phase-1 fan-out. Meaningful only on multi-core
	// machines — on a single hardware thread it hovers near 1.
	Phase1ParallelSpeedup float64 `json:"phase1_parallel_speedup,omitempty"`
	// GatewaySubmitSpeedup is BenchmarkGatewaySubmit1Server's ns/op over
	// BenchmarkGatewaySubmit3Shards's at the same GOMAXPROCS: the intake
	// throughput a 3-shard gateway tier buys over a single server under
	// concurrent submission. Like the phase-1 ratio, it needs real cores
	// to mean much.
	GatewaySubmitSpeedup float64 `json:"gateway_submit_speedup_3shards,omitempty"`
	// ParallelNote explains why the two parallelism ratios above are
	// absent when NumCPU < 2: a single hardware thread measures pure
	// scheduling noise (historically 0.37–0.57 "speedups" that read as
	// regressions), so the fields are omitted rather than recorded.
	ParallelNote string `json:"parallel_speedup_note,omitempty"`
}

func main() {
	out := flag.String("out", "", "output path (default stdout)")
	check := flag.String("check", "", "baseline JSON (a previous benchjson report) to compare against; exit nonzero on regression")
	maxRatio := flag.Float64("max-ratio", 2, "with -check: maximum allowed ns/op ratio current/baseline")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parse baseline %s: %v\n", *check, err)
			os.Exit(1)
		}
		lines, err := compare(&base, rep, *maxRatio)
		for _, l := range lines {
			fmt.Println(l)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Printf("wrote %d benchmark(s) to %s\n", len(rep.Benchmarks), *out)
	}
}

func parse(r io.Reader) (*Report, error) {
	return parseWithCPU(r, runtime.NumCPU())
}

// parseWithCPU is parse with the host core count injected, so tests can
// exercise both sides of the cores<2 gating.
func parseWithCPU(r io.Reader, numCPU int) (*Report, error) {
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     numCPU,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		b, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	derive(rep)
	return rep, nil
}

// cpuModel returns the host's CPU model name from /proc/cpuinfo, or
// "unknown" where the file is missing or names no model.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	return parseCPUModel(f)
}

// parseCPUModel returns the first non-empty "model name" value of a
// /proc/cpuinfo listing, or "unknown" if there is none (as on most ARM
// hosts, whose listings name parts instead).
func parseCPUModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			if v := strings.TrimSpace(val); v != "" {
				return v
			}
		}
	}
	return "unknown"
}

// derive fills the ratio fields the report carries beyond the raw lines.
// Both kinds of derived ratio compare runs matched at the same
// GOMAXPROCS: dividing a -cpu 1 numerator by a -cpu 4 denominator (or
// vice versa) would fold the parallel fan-out into a ratio that is
// supposed to measure something else.
//
// The two hardware-parallelism ratios (phase-1 fan-out, gateway submit)
// are additionally gated on NumCPU: on a single-core host a -cpu 4 run
// just timeslices one hardware thread, and the resulting "speedup"
// (0.37–0.57 observed on the 1-CPU CI container) is noise that reads as
// a regression in the committed trajectory. HorizonSpeedup stays — it
// compares two algorithms at the same GOMAXPROCS, not one algorithm
// across core counts.
func derive(rep *Report) {
	idx := indexBenchmarks(rep.Benchmarks)
	if h, f, ok := pairAtSameCPU(idx, "BenchmarkHorizonAdvance", "BenchmarkFullResolve"); ok && h > 0 {
		rep.HorizonSpeedup = f / h
	}
	if rep.NumCPU < 2 {
		rep.ParallelNote = fmt.Sprintf(
			"parallel speedup ratios omitted: host has %d core(s); a multi-GOMAXPROCS run without hardware parallelism measures scheduling noise",
			rep.NumCPU)
		return
	}
	if g3, g1, ok := pairAtSameCPU(idx, "BenchmarkGatewaySubmit3Shards", "BenchmarkGatewaySubmit1Server"); ok && g3 > 0 {
		rep.GatewaySubmitSpeedup = g1 / g3
	}
	if seq, ok := idx[benchKey{"BenchmarkSchedulePhase1", 1}]; ok && seq.NsPerOp > 0 {
		parCPU, par := 1, 0.0
		for k, b := range idx {
			if k.name == "BenchmarkSchedulePhase1" && k.cpu > parCPU {
				parCPU, par = k.cpu, b.NsPerOp
			}
		}
		if parCPU > 1 && par > 0 {
			rep.Phase1ParallelSpeedup = seq.NsPerOp / par
		}
	}
}

// benchKey identifies one benchmark configuration. Results are keyed by
// (name, cpu), never by name alone: a `-cpu 1,4` run emits two lines for
// the same benchmark, and a name-only key would let one overwrite the
// other and derive phase1_parallel_speedup from an arbitrary pair.
type benchKey struct {
	name string
	cpu  int
}

// indexBenchmarks builds the (name, cpu) index the derived ratios read.
// A suffix-free line (GOMAXPROCS=1) keys as cpu 1. When the input holds
// several runs of one configuration (-count>1), the fastest wins — the
// slower runs carry scheduling noise, not information.
func indexBenchmarks(bs []Benchmark) map[benchKey]Benchmark {
	idx := make(map[benchKey]Benchmark, len(bs))
	for _, b := range bs {
		k := benchKey{b.Name, b.CPU}
		if k.cpu == 0 {
			k.cpu = 1
		}
		if prev, ok := idx[k]; !ok || b.NsPerOp < prev.NsPerOp {
			idx[k] = b
		}
	}
	return idx
}

// compare checks every benchmark configuration present in both the
// baseline and the current report, and returns an error if any current
// ns/op exceeds maxRatio times its baseline. This backs the CI bench
// smoke: a quick `-benchtime=1x -count=3` run whose fastest iteration
// (indexBenchmarks keeps the fastest per configuration) must stay within
// the ratio of the committed BENCH_scheduler.json. Configurations only
// one side measured are ignored — the smoke runs a subset of the full
// bench suite.
func compare(base, cur *Report, maxRatio float64) ([]string, error) {
	bi, ci := indexBenchmarks(base.Benchmarks), indexBenchmarks(cur.Benchmarks)
	keys := make([]benchKey, 0, len(ci))
	for k := range ci {
		if _, ok := bi[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].cpu < keys[j].cpu
	})
	if len(keys) == 0 {
		return nil, fmt.Errorf("no benchmark in the input matches the baseline")
	}
	var lines []string
	if base.CPUModel != "" && base.CPUModel != cur.CPUModel {
		lines = append(lines, fmt.Sprintf("note: baseline recorded on %q, this run on %q", base.CPUModel, cur.CPUModel))
	}
	var regressed []string
	for _, k := range keys {
		b, c := bi[k], ci[k]
		if b.NsPerOp <= 0 {
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > maxRatio {
			verdict = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s-%d", k.name, k.cpu))
		}
		lines = append(lines, fmt.Sprintf("%s (cpu=%d): %.0f ns/op vs baseline %.0f (%.2fx, limit %.2fx) %s",
			k.name, k.cpu, c.NsPerOp, b.NsPerOp, ratio, maxRatio, verdict))
	}
	if len(regressed) > 0 {
		return lines, fmt.Errorf("benchmark regression beyond %.2fx: %s", maxRatio, strings.Join(regressed, ", "))
	}
	return lines, nil
}

// pairAtSameCPU returns the ns/op of benchmarks a and b measured at the
// same GOMAXPROCS, preferring the highest cpu at which both ran. ok is
// false when no common cpu exists.
func pairAtSameCPU(idx map[benchKey]Benchmark, a, b string) (na, nb float64, ok bool) {
	best := 0
	for k := range idx {
		if k.name == a && k.cpu > best {
			if _, found := idx[benchKey{b, k.cpu}]; found {
				best = k.cpu
			}
		}
	}
	if best == 0 {
		return 0, 0, false
	}
	return idx[benchKey{a, best}].NsPerOp, idx[benchKey{b, best}].NsPerOp, true
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   34   34567890 ns/op   123456 B/op   789 allocs/op
//
// Non-benchmark lines (package headers, PASS, ok ...) report ok=false.
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false, nil
	}
	name := fields[0]
	cpu := 0
	// The GOMAXPROCS suffix (BenchmarkX-8) moves to the CPU field so that
	// `-cpu 1,4` runs of one benchmark keep distinct records under a
	// stable name.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, cpu = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: name, Iterations: iters, CPU: cpu}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if b.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Benchmark{}, false, fmt.Errorf("bad ns/op in %q: %w", line, err)
			}
		case "B/op":
			if b.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Benchmark{}, false, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
		case "allocs/op":
			if b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Benchmark{}, false, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
		}
	}
	return b, true, nil
}
