package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/vodsim/vsp/internal/horizon
cpu: Example CPU
BenchmarkHorizonAdvance-8             36          31018870 ns/op        14074702 B/op     135689 allocs/op
BenchmarkFullResolve-8                 1        3638931633 ns/op       1604029008 B/op  15832805 allocs/op
PASS
ok      github.com/vodsim/vsp/internal/horizon  5.812s
pkg: github.com/vodsim/vsp/internal/scheduler
BenchmarkSchedule-8                    3         400123456 ns/op
BenchmarkSchedulePhase1                5         100000000 ns/op
BenchmarkSchedulePhase1-4             18          28000000 ns/op
PASS
ok      github.com/vodsim/vsp/internal/scheduler        2.101s
`

func TestParse(t *testing.T) {
	rep, err := parseWithCPU(strings.NewReader(sample), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	adv := rep.Benchmarks[0]
	if adv.Name != "BenchmarkHorizonAdvance" || adv.Iterations != 36 || adv.CPU != 8 {
		t.Fatalf("first benchmark: %+v", adv)
	}
	if adv.NsPerOp != 31018870 || adv.BytesPerOp != 14074702 || adv.AllocsPerOp != 135689 {
		t.Fatalf("metrics: %+v", adv)
	}
	// BenchmarkSchedule ran without -benchmem: alloc fields stay zero.
	sched := rep.Benchmarks[2]
	if sched.Name != "BenchmarkSchedule" || sched.BytesPerOp != 0 || sched.AllocsPerOp != 0 {
		t.Fatalf("schedule benchmark: %+v", sched)
	}
	// A suffix-free line (GOMAXPROCS=1 run) parses with CPU 0; the -cpu 4
	// run of the same benchmark keeps the same name with CPU 4.
	p1 := rep.Benchmarks[3]
	if p1.Name != "BenchmarkSchedulePhase1" || p1.CPU != 0 {
		t.Fatalf("phase-1 sequential benchmark: %+v", p1)
	}
	if got := rep.Benchmarks[4]; got.Name != "BenchmarkSchedulePhase1" || got.CPU != 4 {
		t.Fatalf("phase-1 parallel benchmark: %+v", got)
	}
	want := 3638931633.0 / 31018870.0
	if math.Abs(rep.HorizonSpeedup-want) > 1e-9 {
		t.Fatalf("speedup = %v, want %v", rep.HorizonSpeedup, want)
	}
	if wantP1 := 100000000.0 / 28000000.0; math.Abs(rep.Phase1ParallelSpeedup-wantP1) > 1e-9 {
		t.Fatalf("phase-1 speedup = %v, want %v", rep.Phase1ParallelSpeedup, wantP1)
	}
	if rep.GoVersion == "" || rep.GOOS == "" || rep.GOARCH == "" {
		t.Fatalf("environment fields missing: %+v", rep)
	}
	if rep.NumCPU != 8 {
		t.Fatalf("num_cpu = %d, want 8", rep.NumCPU)
	}
	if rep.GOMAXPROCS < 1 || rep.CPUModel == "" {
		t.Fatalf("machine fields missing: gomaxprocs %d, cpu_model %q", rep.GOMAXPROCS, rep.CPUModel)
	}
	if rep.ParallelNote != "" {
		t.Fatalf("multi-core report flagged: %q", rep.ParallelNote)
	}
}

// Regression: on a 1-core host (the CI container), a -cpu 1,4 run of
// BenchmarkSchedulePhase1 timeslices one hardware thread and the derived
// "speedup" (0.37–0.57 in past committed reports) is pure noise that
// reads as a parallelism regression. The parallel ratios must be
// omitted — and the omission explained — while the horizon ratio, which
// compares two algorithms at one GOMAXPROCS, survives.
func TestParallelSpeedupsOmittedOnSingleCore(t *testing.T) {
	rep, err := parseWithCPU(strings.NewReader(sample), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1ParallelSpeedup != 0 {
		t.Fatalf("phase-1 speedup %v recorded on a 1-core host", rep.Phase1ParallelSpeedup)
	}
	if rep.GatewaySubmitSpeedup != 0 {
		t.Fatalf("gateway speedup %v recorded on a 1-core host", rep.GatewaySubmitSpeedup)
	}
	if rep.ParallelNote == "" {
		t.Fatal("omission not explained in parallel_speedup_note")
	}
	if rep.NumCPU != 1 {
		t.Fatalf("num_cpu = %d, want 1", rep.NumCPU)
	}
	// The same-GOMAXPROCS algorithmic ratio is still valid on one core.
	if want := 3638931633.0 / 31018870.0; math.Abs(rep.HorizonSpeedup-want) > 1e-9 {
		t.Fatalf("horizon speedup = %v, want %v", rep.HorizonSpeedup, want)
	}
}

func TestGatewaySpeedupOnMultiCore(t *testing.T) {
	const in = `BenchmarkGatewaySubmit1Server-4     100      4000000 ns/op
BenchmarkGatewaySubmit3Shards-4     300      1000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4.0; math.Abs(rep.GatewaySubmitSpeedup-want) > 1e-9 {
		t.Fatalf("gateway speedup = %v, want %v", rep.GatewaySubmitSpeedup, want)
	}
}

// Regression: with -count>1 the same (name, cpu) configuration repeats,
// and with -cpu 1,4 one name spans two configurations. Keying by name
// alone let a later line clobber an earlier one and paired the speedup
// from whichever lines happened to survive. The ratio must come from the
// fastest run of each matched (name, cpu) pair.
func TestPhase1SpeedupFromMatchedPair(t *testing.T) {
	const in = `goos: linux
BenchmarkSchedulePhase1               5         100000000 ns/op
BenchmarkSchedulePhase1-4            18          25000000 ns/op
BenchmarkSchedulePhase1               5         110000000 ns/op
BenchmarkSchedulePhase1-4            16          26000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want all 4 kept", len(rep.Benchmarks))
	}
	// Fastest cpu=1 run (100ms) over fastest cpu=4 run (25ms): exactly 4.
	if want := 4.0; math.Abs(rep.Phase1ParallelSpeedup-want) > 1e-9 {
		t.Fatalf("phase-1 speedup = %v, want %v", rep.Phase1ParallelSpeedup, want)
	}
}

// A parallel-only input (no cpu=1 leg) has no matched pair: emitting a
// speedup would be fabricating the sequential baseline.
func TestPhase1SpeedupNeedsBothLegs(t *testing.T) {
	const in = `BenchmarkSchedulePhase1-4            18          25000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1ParallelSpeedup != 0 {
		t.Fatalf("speedup %v derived without a sequential leg", rep.Phase1ParallelSpeedup)
	}
}

// The horizon ratio must also pair at one GOMAXPROCS: given FullResolve
// at cpus 1 and 8 but HorizonAdvance only at 8, the cpu-8 pair is the
// match — mixing the cpu-1 FullResolve in would inflate the ratio.
func TestHorizonSpeedupMatchesCPU(t *testing.T) {
	const in = `BenchmarkHorizonAdvance-8             36          31000000 ns/op
BenchmarkFullResolve                   1        9000000000 ns/op
BenchmarkFullResolve-8                 1        3100000000 ns/op
PASS
`
	rep, err := parseWithCPU(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100.0; math.Abs(rep.HorizonSpeedup-want) > 1e-9 {
		t.Fatalf("horizon speedup = %v, want %v (the cpu-8 pair)", rep.HorizonSpeedup, want)
	}
}

// The -check mode compares only configurations both reports measured,
// judges each by the fastest run, and flags ratios beyond the limit.
func TestCompareFlagsRegression(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSchedule", NsPerOp: 100e6},
		{Name: "BenchmarkSchedulePhase1", NsPerOp: 1e6, CPU: 4},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSchedule", NsPerOp: 350e6}, // 3.5x: regression
		{Name: "BenchmarkSchedule", NsPerOp: 150e6}, // fastest of -count runs: 1.5x, fine
		{Name: "BenchmarkOnlyHere", NsPerOp: 1},     // no baseline: ignored
	}}
	lines, err := compare(base, cur, 2)
	if err != nil {
		t.Fatalf("fastest run within limit still failed: %v\n%s", err, strings.Join(lines, "\n"))
	}
	cur.Benchmarks[1].NsPerOp = 250e6 // now even the best run is 2.5x
	if _, err := compare(base, cur, 2); err == nil {
		t.Fatal("2.5x regression passed a 2x limit")
	}
	// A smoke run that matches nothing in the baseline must fail loudly
	// rather than vacuously pass.
	if _, err := compare(base, &Report{Benchmarks: []Benchmark{{Name: "BenchmarkOnlyHere", NsPerOp: 1}}}, 2); err == nil {
		t.Fatal("disjoint benchmark sets compared as success")
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok  pkg 0.1s\n")); err == nil {
		t.Fatal("input without benchmark lines must fail")
	}
}

func TestParseLineMalformedCount(t *testing.T) {
	if _, _, err := parseLine("BenchmarkX-8  notanint  12 ns/op"); err == nil {
		t.Fatal("malformed iteration count must fail")
	}
}

// The machine's CPU model comes from the first "model name" line of
// /proc/cpuinfo; listings without one (ARM hosts, or no file at all)
// record "unknown".
func TestParseCPUModel(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"x86", "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\nmodel name\t: Intel(R) Xeon(R) Processor\n\nprocessor\t: 1\nmodel name\t: Other\n",
			"Intel(R) Xeon(R) Processor"},
		{"empty value skipped", "model name\t:\nmodel name\t: AMD EPYC 7B13\n", "AMD EPYC 7B13"},
		{"arm", "processor\t: 0\nBogoMIPS\t: 50.00\nCPU implementer\t: 0x41\nCPU part\t: 0xd0c\n", "unknown"},
		{"empty", "", "unknown"},
	} {
		if got := parseCPUModel(strings.NewReader(tc.in)); got != tc.want {
			t.Errorf("%s: cpu model %q, want %q", tc.name, got, tc.want)
		}
	}
}

// -check notes a baseline taken on a different CPU model, since its
// ratios then compare machines as well as code.
func TestCompareNotesMachineChange(t *testing.T) {
	base := &Report{CPUModel: "A", Benchmarks: []Benchmark{{Name: "BenchmarkSchedule", NsPerOp: 1}}}
	cur := &Report{CPUModel: "B", Benchmarks: []Benchmark{{Name: "BenchmarkSchedule", NsPerOp: 1}}}
	lines, err := compare(base, cur, 2)
	if err != nil || len(lines) != 2 || !strings.Contains(lines[0], `"A"`) || !strings.Contains(lines[0], `"B"`) {
		t.Fatalf("lines %q, err %v: want a machine note before the verdict", lines, err)
	}
	cur.CPUModel = "A"
	if lines, _ := compare(base, cur, 2); len(lines) != 1 {
		t.Fatalf("lines %q: a same-machine compare carries no note", lines)
	}
}
