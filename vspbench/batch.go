package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/vodsim/vsp/internal/analysis"
	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/experiment"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

// rig builds the experiment-rig metro every workload runs on: 15
// intermediate storages of 5 GB with 10 users each and 100 titles. The
// infrastructure is fixed; only the traffic comes from the seed.
func rig() (*experiment.Rig, error) {
	return experiment.Build(experiment.Params{Storages: 15, UsersPerStorage: 10, Titles: 100, CapacityGB: 5})
}

// batches is how many distinct batches one batch-solve run cycles
// through. Solve time and plan cost depend on the batch, so a run that
// averages over a few batches drawn from its seed varies less from seed
// to seed than a run over one.
const batches = 8

// batchSystem is the batch-solve system under test and its inputs.
type batchSystem struct {
	model  *cost.Model
	reqs   []workload.Set
	bodies [][]byte
	probe  *probe
	ln     *listener
}

func setupBatch(seed int64, tr *tracer) (*batchSystem, error) {
	r, err := rig()
	if err != nil {
		return nil, err
	}
	sys := &batchSystem{model: r.Model}
	for j := int64(0); j < batches; j++ {
		// Ten Zipf reservations per user over a 12-hour window: 1,500 requests.
		reqs, err := workload.Generate(r.Topo, r.Catalog, workload.Config{
			Alpha: 0.271, Window: 12 * simtime.Hour, RequestsPerUser: 10, Seed: seed*batches + j + 1})
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.ScheduleRequest{Requests: reqs})
		if err != nil {
			return nil, err
		}
		sys.reqs, sys.bodies = append(sys.reqs, reqs), append(sys.bodies, body)
	}
	sys.probe = &probe{name: "server", next: server.New(r.Model), tr: tr}
	if sys.ln, err = serve(sys.probe); err != nil {
		return nil, err
	}
	if err := healthy(sys.ln.url); err != nil {
		sys.ln.close()
		return nil, err
	}
	return sys, nil
}

// batchSolve posts Zipf batches to /v1/schedule from a single client that
// waits for each plan, because a batch planner is a closed loop. It
// cycles through the run's batches in whole rounds, so that every batch is
// solved equally often. Replies to one batch must be byte-identical and
// pass the audit bundle with zero overflows.
func batchSolve(cfg config) (*report, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	sys, setupS, err := timeSetup(setups, func() (*batchSystem, error) { return setupBatch(cfg.seed, tr) },
		func(s *batchSystem) { s.ln.close() })
	if err != nil {
		return nil, err
	}
	defer sys.ln.close()
	rep := newReport()
	rep.set("setup_s", "s", setupS)
	heap := watchHeap()
	defer heap.close()

	c := newClient()
	defer c.CloseIdleConnections()
	first := make([][]byte, batches)
	var rtts []float64
	var counts solveCounts
	// Two rounds give every batch a second reply to compare. The traced
	// pass decomposes every solve as well, which doubles its cost, and
	// checks each reply against its decomposition instead, so one round
	// does.
	rounds := 2
	if cfg.traced {
		rounds = 1
	}
	for begin, round := time.Now(), 0; round < rounds || time.Since(begin) < cfg.seconds; round++ {
		for j := range sys.bodies {
			id := int64(len(rtts))
			sp := tr.begin(id, -1, "http.request")
			t0 := time.Now()
			status, body, err := call(c, sys.ln.url+"/v1/schedule", sys.bodies[j], id, sp)
			rtt := time.Since(t0)
			tr.end(sp)
			rep.attempted++
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("solve %d: status %d, %v: %.200s", id, status, err, body)
			}
			rtts = append(rtts, ms(rtt))
			if first[j] == nil {
				first[j] = body
			} else if !bytes.Equal(body, first[j]) {
				rep.fail("reply %d differs from the first reply to batch %d", id, j)
			}
			if cfg.traced {
				// The reply's schedule is scheduler.Schedule's output,
				// encoded by the server; the decomposition must match it.
				var raw struct {
					Schedule json.RawMessage `json:"schedule"`
				}
				got, err := decomposeBatch(tr, id, sys.model, sys.bodies[j], &counts)
				if err != nil {
					return nil, err
				}
				if json.Unmarshal(body, &raw) != nil || !bytes.Equal(got, raw.Schedule) {
					rep.fail("decomposed solve %d differs from scheduler.Schedule", id)
				}
			}
		}
	}
	var costs, overflows, victims []float64
	for j, body := range first {
		var reply server.ScheduleResponse
		if err := json.Unmarshal(body, &reply); err != nil {
			return nil, fmt.Errorf("decode reply: %w", err)
		}
		if a := audit.Run(sys.model, reply.Schedule, sys.reqs[j]); !a.OK() || a.Overflows != 0 {
			rep.fail("reply to batch %d fails the audit bundle: %v", j, a.Findings)
		}
		costs = append(costs, float64(reply.FinalCost))
		overflows = append(overflows, float64(reply.Overflows))
		victims = append(victims, float64(reply.Victims))
	}
	rep.notes["gates"] = "every reply passed the audit bundle with zero overflows; replies to one batch were byte-identical"
	rep.set("heap_mb", "MiB", heap.mib())

	_, _, handled, _ := sys.probe.snapshot()
	handler := timingsMS(handled)
	// A solve is both the user's wait and the commit of its batch's plan.
	p50 := median(rtts)
	rep.set("latency_p50_ms", "ms", p50)
	rep.set("commit_p50_ms", "ms", median(handler))
	rep.set("commit_mean_ms", "ms", mean(handler))
	rep.set("plan_cost_usd", "USD", mean(costs))
	rep.set("solve_s", "s", p50/1000)
	rep.set("failed_ratio", "ratio", float64(rep.failed)/float64(rep.attempted))
	rep.set("solves", "count", float64(len(rtts)))
	rep.set("overflows", "count", mean(overflows))
	rep.set("victims", "count", mean(victims))

	if cfg.traced {
		spans := tr.all()
		rep.spans = spans
		rep.set("http.transport_ms_p50", "ms", median(selfOf(spans, "http.request")))
		rep.set("server.handler_ms_p50", "ms", median(durations(spans, "server.schedule")))
		layers := solverLayers(rep, spans, counts)
		// Reconciliation: the client's transport share plus the self
		// times of every layer of the decomposed handler should add up
		// to the solve round trip.
		sum := rep.metrics["http.transport_ms_p50"].Value
		for _, v := range layers {
			sum += v
		}
		rep.set("reconcile.layers_over_solve", "ratio", sum/mean(rtts))
		rep.notes["reconcile"] = map[string]any{
			"rule":      fmt.Sprintf("transport + decomposed layer self times per solve within ±%.0f%% of the mean solve round trip", 100*batchTolerance),
			"layers_ms": layers, "sum_ms": sum, "solve_ms": mean(rtts), "ok": math.Abs(sum/mean(rtts)-1) <= batchTolerance,
		}
	}
	return rep, nil
}

// batchTolerance is how far the decomposed layers may sum from solve_s.
const batchTolerance = 0.10

// decomposeBatch re-runs what POST /v1/schedule does, one public call at
// a time: decode the body, scheduler.Schedule's solve sequence, the
// direct-stream baseline, the summary and the reply encoding. It returns
// the solved schedule's JSON.
func decomposeBatch(tr *tracer, id int64, m *cost.Model, body []byte, counts *solveCounts) ([]byte, error) {
	root := tr.begin(id, -1, "solve")
	defer tr.end(root)
	sp := tr.begin(id, root, "server.decode")
	var in server.ScheduleRequest
	err := json.Unmarshal(body, &in)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	overflows, victims := counts.overflows, counts.victims
	s, err := decompose(tr, id, root, m, solveInput{
		reqs: in.Requests.ByVideo(), videos: in.Requests.Videos(), all: in.Requests}, counts)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(id, root, "scheduler.direct")
	direct, err := scheduler.Schedule(context.Background(), m, in.Requests, scheduler.Config{Policy: ivs.NoCaching})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(id, root, "analysis.summarize")
	sum := analysis.Summarize(m, s)
	tr.end(sp)
	sp = tr.begin(id, root, "server.encode")
	_, err = json.Marshal(server.ScheduleResponse{Schedule: s, FinalCost: m.ScheduleCost(s), DirectCost: direct.FinalCost,
		Overflows: counts.overflows - overflows, Victims: counts.victims - victims, HitRatePct: 100 * sum.HitRate(), Copies: sum.Copies})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(s)
}
