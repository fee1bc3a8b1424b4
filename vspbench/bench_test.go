package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/experiment"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true},
		{90, 90, true},  // ten samples beyond rank 90
		{91, 91, false}, // only nine beyond
		{99, 99, false},
		{100, 100, false},
	} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, ok := percentile(big, 99); v != 990 || !ok {
		t.Errorf("p99 of 1000 = %v, %v; want 990 with ten beyond", v, ok)
	}
	if _, ok := percentile(big[:999], 99); ok {
		t.Error("p99 of 999 samples has nine beyond it and must not count")
	}
	if v, at := tail(xs, 99); v != 100 || at != 100 {
		t.Errorf("tail p99 of 100 samples = %v at p%v; want the maximum", v, at)
	}
	if v, at := tail(big, 99); v != 990 || at != 99 {
		t.Errorf("tail p99 of 1000 samples = %v at p%v; want 990 at p99", v, at)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "solve", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "ivs.phase1", Start: 10, End: 70},
		// Parallel files overlap each other; they are IVS's own work.
		{ID: 2, Parent: 1, Name: "ivs.file", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "ivs.file", Start: 30, End: 70},
		{ID: 4, Parent: 0, Name: "sorp.resolve", Start: 60, End: 90}, // overlaps ivs.phase1
		{ID: 5, Parent: 0, Name: "solve.merge", Start: 92, End: 96},  // same layer as the root
		{ID: 6, Parent: 4, Name: "occupancy.build", Start: 80, End: 120},
	}
	self := selfTimes(spans)
	// The root loses [10,90) to its two other-layer children, once.
	if self[0] != 20 {
		t.Errorf("root self = %d, want 20", self[0])
	}
	if self[1] != 60 {
		t.Errorf("ivs.phase1 self = %d, want 60 (same-layer children stay in)", self[1])
	}
	// A child running past its parent only covers the parent's part.
	if self[4] != 20 {
		t.Errorf("sorp self = %d, want 20", self[4])
	}
	ls := layerSelf(spans)
	want := map[string]float64{"solve": 20e-6, "ivs": 60e-6, "sorp": 20e-6, "occupancy": 40e-6}
	for l, v := range want {
		if d := ls[l] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("layer %s self = %v ms, want %v", l, ls[l], v)
		}
	}
	if covered([][2]int64{{0, 10}, {5, 15}, {20, 30}, {22, 25}}) != 25 {
		t.Error("union of intervals miscounted")
	}
}

// reservations makes n reservations with distinct start times.
func reservations(n int) []workload.Request {
	out := make([]workload.Request, n)
	for i := range out {
		out[i] = workload.Request{User: 1, Video: 2, Start: simtime.Time(i * 60)}
	}
	return out
}

func TestLatencyCountsFromDueTimeWhenServerStalls(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(300 * time.Millisecond)
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"accepted":true}`))
	}))
	defer srv.Close()

	// 100/s from one connection: requests 3.. are due every 10 ms while
	// request 2 (the third) is stuck for 300 ms.
	samples := openLoop(srv.URL, reservations(12), 100, 1, nil, nil)
	if got := samples[0].latency(); got > 100*time.Millisecond {
		t.Errorf("first request took %v on an idle server", got)
	}
	stalled := samples[2].latency()
	if stalled < 300*time.Millisecond {
		t.Errorf("stalled request latency %v, want ≥300ms", stalled)
	}
	// The next request is served instantly, but it was due 10 ms after
	// the stalled one and could only be sent once the stall ended.
	next := samples[3]
	if serve := next.done.Sub(next.sent); serve > 100*time.Millisecond {
		t.Fatalf("request after the stall was slow itself: %v", serve)
	}
	if next.latency() < 250*time.Millisecond || next.lateness() < 250*time.Millisecond {
		t.Errorf("request after the stall: latency %v, lateness %v; want both ≥250ms", next.latency(), next.lateness())
	}
	if next.ontime() {
		t.Error("a request answered 250ms after its due time counted as on time")
	}
}

func TestRefusedRepliesCountAsFailedAndMissed(t *testing.T) {
	codes := []int{http.StatusAccepted, http.StatusTooManyRequests, http.StatusAccepted,
		http.StatusConflict, http.StatusInternalServerError, http.StatusAccepted, http.StatusBadGateway}
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := codes[n.Add(1)-1]
		w.WriteHeader(code)
		if code == http.StatusAccepted {
			w.Write([]byte(`{"accepted":true}`))
		} else {
			w.Write([]byte(`{"error":"no"}`))
		}
	}))
	defer srv.Close()

	samples := openLoop(srv.URL, reservations(len(codes)), 200, 1, nil, nil)
	rep := newReport()
	intakeMetrics(rep, samples, []timing{{status: http.StatusOK, ok: true}, {status: http.StatusOK}}, 1)
	if rep.attempted != len(codes)+2 || rep.failed != 4+1 {
		t.Errorf("attempted %d failed %d; want %d and 5", rep.attempted, rep.failed, len(codes)+2)
	}
	if got, want := rep.metrics["ontime_ratio"].Value, 3.0/7; got != want {
		t.Errorf("ontime_ratio = %v, want %v: refused replies must count as misses", got, want)
	}
	tracedIntake(rep, nil, samples, nil, nil, solveCounts{})
	if got := rep.notes["reconcile"].(map[string]any)["misses"]; got != 4 {
		t.Errorf("misses = %v, want the 4 refused replies", got)
	}
	if len(ackedSet(samples)) != 3 {
		t.Error("only 202 replies are acknowledged reservations")
	}
}

// smallRig is a metro small enough for unit tests.
func smallRig(t *testing.T) *experiment.Rig {
	t.Helper()
	r, err := experiment.Build(experiment.Params{Storages: 4, UsersPerStorage: 3, Titles: 12, CapacityGB: 2,
		RequestsPerUser: 4, WindowHours: 6})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDecomposedBatchMatchesScheduler(t *testing.T) {
	r := smallRig(t)
	out, err := scheduler.Schedule(context.Background(), r.Model, r.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(out.Schedule)
	body, _ := json.Marshal(map[string]any{"requests": r.Requests})
	tr := newTracer()
	var counts solveCounts
	got, err := decomposeBatch(tr, 0, r.Model, body, &counts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("decomposed solve differs from scheduler.Schedule")
	}
	if counts.overflows != out.Overflows || counts.victims != len(out.Victims) {
		t.Errorf("counted %d overflows and %d victims, scheduler %d and %d",
			counts.overflows, counts.victims, out.Overflows, len(out.Victims))
	}
}

func TestReplayedEpochsMatchAdvance(t *testing.T) {
	r := smallRig(t)
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	var ops []op
	for i, q := range reqs {
		ops = append(ops, op{at: q.Start, req: q})
		if i%8 == 7 {
			ops = append(ops, op{advance: true, to: simtime.Max(0, q.Start.Add(-simtime.Hour))})
		}
	}
	ops = append(ops, op{advance: true, to: reqs[len(reqs)-1].Start})
	var counts solveCounts
	st, err := replay(newTracer(), 0, r.Model, horizon.Config{}, ops, t.TempDir(), &counts)
	if err != nil {
		t.Fatal(err)
	}
	if counts.solves != len(st.advanceMS) || len(st.durableUS) != len(reqs) {
		t.Errorf("%d solves for %d advances, %d durable submits for %d", counts.solves, len(st.advanceMS), len(st.durableUS), len(reqs))
	}
	if st.admitted != len(reqs) {
		t.Errorf("admitted %d of %d", st.admitted, len(reqs))
	}
}
