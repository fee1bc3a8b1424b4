package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// Intake workload parameters. Rates are fixed, so a slower service meets
// the same offered load and shows it as latency; epoch triggers are sized
// so that a run commits well over 100 epochs, which gives the p90 commit
// time at least ten samples beyond it. At 250/s the sharded tier sits at
// its knee on a two-CPU machine and some runs tip into a growing backlog
// (median submit latency 1.2 ms in one run, 3.7 ms in the next with the
// same seed), so it runs at 150/s.
const (
	durableRate   = 100.0 // reservations per second
	durableEpoch  = 15    // pending reservations that make an epoch due
	durableLag    = 2 * simtime.Hour
	shardedRate   = 150.0
	shardedEpoch  = 20
	shardedLag    = simtime.Hour
	shardedShards = 3
	shardedDays   = 3
)

// intakeSystem is a reservation service on loopback: one server, or
// shards behind a gateway.
type intakeSystem struct {
	model   *cost.Model
	reqs    []workload.Request
	hcfg    horizon.Config
	dataDir string
	shards  []*server.Server
	probes  []*probe
	lns     []*listener
	gw      *gateway.Gateway
	gwLn    *listener
	url     string
	closed  bool
}

// close stops the gateway and the shards; calling it again does nothing.
func (s *intakeSystem) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.gwLn != nil {
		s.gwLn.close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, l := range s.lns {
		l.close()
	}
	for _, sv := range s.shards {
		sv.Close()
	}
}

func setupDurable(cfg config, tr *tracer) (*intakeSystem, error) {
	r, err := rig()
	if err != nil {
		return nil, err
	}
	n := int(durableRate * cfg.seconds.Seconds())
	reqs, err := workload.GeneratePattern(r.Topo, r.Catalog, workload.Pattern{
		Base:     workload.Config{Alpha: 0.271, Seed: cfg.seed},
		Requests: n,
		Span:     2 * simtime.Day,
		Diurnal:  workload.Diurnal{Strength: 0.6},
	})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "wal-")
	if err != nil {
		return nil, err
	}
	sys := &intakeSystem{model: r.Model, reqs: reqs, dataDir: dir,
		hcfg: horizon.Config{EpochRequests: durableEpoch, Fsync: wal.FsyncAlways}}
	sv, err := server.NewWithOptions(r.Model, server.Options{DataDir: dir, Horizon: sys.hcfg})
	if err != nil {
		return nil, err
	}
	p := &probe{name: "server", next: sv, tr: tr}
	ln, err := serve(p)
	if err != nil {
		sv.Close()
		return nil, err
	}
	sys.shards, sys.probes, sys.lns, sys.url = []*server.Server{sv}, []*probe{p}, []*listener{ln}, ln.url
	return sys, health(sys)
}

func setupSharded(cfg config, tr *tracer) (*intakeSystem, error) {
	r, err := rig()
	if err != nil {
		return nil, err
	}
	n := int(shardedRate * cfg.seconds.Seconds())
	// Each day of the trace draws its own regional tastes and crowd from
	// the seed, so one run averages over several days' worth of content.
	var reqs []workload.Request
	for day := 0; day < shardedDays; day++ {
		part, err := workload.GeneratePattern(r.Topo, r.Catalog, workload.Pattern{
			Base:        workload.Config{Alpha: 0.271, Seed: cfg.seed*shardedDays + int64(day) + 1},
			Requests:    n / shardedDays,
			Span:        simtime.Day,
			Diurnal:     workload.Diurnal{Strength: 0.6},
			Regions:     shardedShards,
			CohortShare: 0.5,
			// A premiere at the evening peak pulls a third of the crowd's
			// extra demand onto one cold title.
			Flash: []workload.Flash{{At: simtime.Time(20 * simtime.Hour), Duration: 2 * simtime.Hour,
				Boost: 2, Video: media.VideoID(r.Catalog.Len() - 1), Share: 0.33}},
		})
		if err != nil {
			return nil, err
		}
		for _, q := range part {
			q.Start = q.Start.Add(simtime.Duration(day) * simtime.Day)
			reqs = append(reqs, q)
		}
	}
	sys := &intakeSystem{model: r.Model, reqs: reqs, hcfg: horizon.Config{EpochRequests: shardedEpoch}}
	var links *linkTable
	if tr != nil {
		links = newLinkTable()
	}
	var shards []gateway.ShardConfig
	for k := 0; k < shardedShards; k++ {
		id := fmt.Sprintf("s%d", k)
		sv, err := server.NewWithOptions(r.Model, server.Options{ShardID: id, Horizon: sys.hcfg})
		if err != nil {
			sys.close()
			return nil, err
		}
		p := &probe{name: "server", next: sv, tr: tr, links: links}
		ln, err := serve(p)
		if err != nil {
			sv.Close()
			sys.close()
			return nil, err
		}
		sys.shards, sys.probes, sys.lns = append(sys.shards, sv), append(sys.probes, p), append(sys.lns, ln)
		shards = append(shards, gateway.ShardConfig{ID: id, Primary: ln.url})
	}
	sys.gw, err = gateway.New(gateway.Config{Shards: shards, Policy: gateway.Locality(), Topo: r.Topo,
		AutoAdvance: true, AdvanceLag: shardedLag})
	if err != nil {
		sys.close()
		return nil, err
	}
	if sys.gwLn, err = serve(&probe{name: "gateway", next: sys.gw, tr: tr, links: links}); err != nil {
		sys.close()
		return nil, err
	}
	sys.url = sys.gwLn.url
	return sys, health(sys)
}

func health(sys *intakeSystem) error {
	if err := healthy(sys.url); err != nil {
		sys.close()
		return err
	}
	return nil
}

func teardown(sys *intakeSystem) {
	sys.close()
	if sys.dataDir != "" {
		os.RemoveAll(sys.dataDir)
	}
}

// intakeDurable drives one durable server — fsync on every journal
// append, default snapshots, a request-count epoch trigger — with a
// two-day diurnal reservation stream at a fixed open-loop rate. One
// connection submits and a second closes epochs at the newest arrival
// minus two hours, coalescing triggers. The drained plan must validate
// against every acknowledged reservation, and reopening the data
// directory must recover the same plan.
func intakeDurable(cfg config) (*report, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	sys, setupS, err := timeSetup(setups, func() (*intakeSystem, error) { return setupDurable(cfg, tr) }, teardown)
	if err != nil {
		return nil, err
	}
	defer teardown(sys)
	rep := newReport()
	rep.set("setup_s", "s", setupS)
	heap := watchHeap()
	defer heap.close()

	adv := newAdvancer(sys.url, durableLag)
	samples := openLoop(sys.url, sys.reqs, durableRate, 1, tr, adv.observe)
	if err := adv.finish(); err != nil {
		return nil, fmt.Errorf("final advance: %w", err)
	}
	acked := ackedSet(samples)
	var plan server.PlanResponse
	if err := getJSON(sys.url+"/v1/plan", &plan); err != nil {
		return nil, err
	}
	if err := plan.Schedule.Validate(sys.model.Book().Topology(), sys.model.Catalog(), acked); err != nil {
		rep.fail("drained plan does not validate against the acknowledged reservations: %v", err)
	}
	rep.set("heap_mb", "MiB", heap.mib())
	intakeMetrics(rep, samples, adv.samples, float64(plan.Cost))

	// Reopen the journal: recovery must rebuild the committed plan.
	submits, _, _, ops := sys.probes[0].snapshot()
	sys.close()
	if rec, err := horizon.Recover(sys.dataDir, sys.model, sys.hcfg); err != nil {
		rep.fail("reopening the data directory: %v", err)
	} else {
		got, _ := json.Marshal(rec.Committed())
		rec.Close()
		if want, _ := json.Marshal(plan.Schedule); !bytes.Equal(got, want) {
			rep.fail("recovered plan differs from the served plan")
		}
	}
	rep.notes["gates"] = "the drained plan validates against every acknowledged reservation; reopening the data directory recovers the same plan"

	if cfg.traced {
		var counts solveCounts
		st, err := replay(tr, 0, sys.model, horizon.Config{}, ops, sys.dataDir+"-replay", &counts)
		defer os.RemoveAll(sys.dataDir + "-replay")
		if err != nil {
			return nil, err
		}
		spans := tr.all()
		rep.spans = spans
		tracedIntake(rep, spans, samples, map[string][]timing{"": adv.samples}, submits, counts)
		horizonLayers(rep, []*replayStats{st})
		wj50, _ := percentile(st.durableUS, 50)
		m50, _ := percentile(st.submitUS, 50)
		wj99, _ := percentile(st.durableUS, 99)
		m99, _ := percentile(st.submitUS, 99)
		rep.set("wal.journal_us_p50", "us", wj50-m50)
		rep.set("wal.journal_us_p99", "us", wj99-m99)
		rep.set("server.submit_self_ms_p50", "ms", rep.metrics["server.handler_ms_p50"].Value-wj50/1e3)
	}
	return rep, nil
}

// shardedFlash drives three in-memory shards behind a gateway that
// places by locality and closes each shard's epochs itself an hour
// behind its newest arrival, under a three-region stream with regional
// taste cohorts and a premiere flash crowd. The merged plan must
// validate against every acknowledged reservation and no breaker may
// open.
func shardedFlash(cfg config) (*report, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	sys, setupS, err := timeSetup(setups, func() (*intakeSystem, error) { return setupSharded(cfg, tr) }, teardown)
	if err != nil {
		return nil, err
	}
	defer teardown(sys)
	rep := newReport()
	rep.set("setup_s", "s", setupS)
	heap := watchHeap()
	defer heap.close()

	var maxAt simtime.Time
	samples := openLoop(sys.url, sys.reqs, shardedRate, 2, tr, nil)
	for _, s := range samples {
		if s.ok() {
			maxAt = simtime.Max(maxAt, s.req.Start)
		}
	}
	sys.gw.Close() // waits for the auto-advances still in flight
	var commits []timing
	shardAdv := map[string][]timing{}
	for k, p := range sys.probes {
		_, advs, _, _ := p.snapshot()
		shardAdv[fmt.Sprintf("s%d", k)] = advs
		commits = append(commits, advs...)
	}
	// The drain closes every shard's last epoch. A shard listed as failed
	// counts as a failed operation; whether its epoch really committed is
	// for the plan gate below to find out.
	body, _ := json.Marshal(server.AdvanceRequest{To: maxAt.Add(-shardedLag)})
	c := newClient()
	defer c.CloseIdleConnections()
	status, reply, err := call(c, sys.url+"/v1/advance", body, -1, -1)
	var ar gateway.AdvanceResponse
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &ar) != nil {
		return nil, fmt.Errorf("final advance: status %d, %v: %.200s", status, err, reply)
	}
	var plan gateway.PlanResponse
	if err := getJSON(sys.url+"/v1/plan", &plan); err != nil {
		return nil, err
	}
	acked := ackedSet(samples)
	topo := sys.model.Book().Topology()
	if err := plan.Schedule.Validate(topo, sys.model.Catalog(), acked); err != nil {
		rep.fail("merged plan does not validate against the acknowledged reservations: %v", err)
	}
	stats := sys.gw.Stats()
	opens, routed := 0.0, []float64{}
	for _, sh := range stats.Shards {
		if sh.Breaker != nil {
			opens += float64(sh.Breaker.Ejections)
		}
		routed = append(routed, float64(sh.Routed))
	}
	if opens != 0 {
		rep.fail("%v circuit-breaker openings", opens)
	}
	rep.notes["gates"] = "merged plan validated against every acknowledged reservation; no breaker opened"
	rep.set("heap_mb", "MiB", heap.mib())
	intakeMetrics(rep, samples, commits, float64(plan.Cost))
	rep.attempted += len(sys.shards)
	rep.failed += len(ar.Failed)
	if len(ar.Failed) > 0 {
		rep.notes["final_advance_failed"] = ar.Failed
	}

	if cfg.traced {
		var counts solveCounts
		var sts []*replayStats
		var submits []timing
		for k, p := range sys.probes {
			subs, _, _, ops := p.snapshot()
			submits = append(submits, subs...)
			st, err := replay(tr, int64(k+1)<<32, sys.model, horizon.Config{}, ops, "", &counts)
			if err != nil {
				return nil, err
			}
			sts = append(sts, st)
		}
		spans := tr.all()
		rep.spans = spans
		tracedIntake(rep, spans, samples, shardAdv, submits, counts)
		horizonLayers(rep, sts)
		var mem []float64
		for _, st := range sts {
			mem = append(mem, st.submitUS...)
		}
		rep.set("server.submit_self_ms_p50", "ms", rep.metrics["server.handler_ms_p50"].Value-median(mem)/1e3)
		hops := selfOf(spans, "gateway.reservations")
		h50, _ := percentile(hops, 50)
		h99, _ := tail(hops, 99)
		rep.set("gateway.hop_ms_p50", "ms", h50)
		rep.set("gateway.hop_ms_p99", "ms", h99)
		rep.set("gateway.route_skew", "ratio", maxOf(routed)/mean(routed))
		var per []float64
		for _, advs := range shardAdv {
			per = append(per, median(timingsMS(advs)))
		}
		rep.set("gateway.advance_spread_ms", "ms", maxOf(per)-minOf(per))
		rep.set("gateway.breaker_opens", "count", opens)
	}
	return rep, nil
}

// intakeMetrics sets the end-to-end metrics of an intake run.
func intakeMetrics(rep *report, samples []sample, commits []timing, cost float64) {
	var lat, late []float64
	ontime, failed := 0, 0
	for _, s := range samples {
		late = append(late, ms(s.lateness()))
		if !s.ok() {
			failed++
			continue
		}
		lat = append(lat, ms(s.latency()))
		if s.ontime() {
			ontime++
		}
	}
	var commitMS []float64
	advFailed := 0
	empty := 0
	for _, t := range commits {
		if !t.ok {
			advFailed++
			if t.status == http.StatusOK {
				empty++
			}
			continue
		}
		commitMS = append(commitMS, t.ms())
	}
	if empty > 0 {
		// The epoch committed but its result could not be encoded.
		rep.notes["advance_empty_replies"] = empty
	}
	rep.attempted = len(samples) + len(commits)
	rep.failed = failed + advFailed
	p50 := median(lat)
	rep.set("latency_p50_ms", "ms", p50)
	rep.set("commit_mean_ms", "ms", mean(commitMS))
	rep.set("plan_cost_usd", "USD", cost)
	rep.set("submit_p50_ms", "ms", p50)
	p99, _ := percentile(lat, 99)
	rep.set("submit_p99_ms", "ms", p99)
	rep.set("ontime_ratio", "ratio", float64(ontime)/float64(len(samples)))
	rep.set("epoch_commit_p50_ms", "ms", median(commitMS))
	c90, _ := percentile(commitMS, 90)
	rep.set("epoch_commit_p90_ms", "ms", c90)
	rep.set("epochs", "count", float64(len(commitMS)))
	rep.set("failed_ratio", "ratio", float64(rep.failed)/float64(rep.attempted))
	lp99, _ := tail(late, 99)
	rep.set("pacer.late_p99_ms", "ms", lp99)
}

// tracedIntake sets the per-layer metrics every intake run shares: the
// client's transport share, the handler, the decomposed epoch solves and
// the split of submits by whether an advance of their shard was in
// flight between their due time and their reply.
func tracedIntake(rep *report, spans []span, samples []sample, advances map[string][]timing, submits []timing, counts solveCounts) {
	rep.set("http.transport_ms_p50", "ms", median(selfOf(spans, "http.request")))
	rep.set("server.handler_ms_p50", "ms", median(timingsMS(submits)))
	solverLayers(rep, spans, counts)

	var overlap, clean []float64
	misses, explained := 0, 0
	for _, s := range samples {
		hit := false
		for _, a := range advances[s.shard] {
			if a.start.Before(s.done) && a.end.After(s.due) {
				hit = true
				break
			}
		}
		switch {
		case !s.ok(): // a failed submit has no latency but misses the limit
		case hit:
			overlap = append(overlap, ms(s.latency()))
		default:
			clean = append(clean, ms(s.latency()))
		}
		if !s.ontime() {
			misses++
			if hit {
				explained++
			}
		}
	}
	rep.set("intake.overlap_advance_ratio", "ratio", float64(len(overlap))/float64(max(len(overlap)+len(clean), 1)))
	o99, _ := tail(overlap, 99)
	c99, _ := tail(clean, 99)
	rep.set("intake.overlap_p99_ms", "ms", o99)
	rep.set("intake.clean_p99_ms", "ms", c99)
	rep.notes["reconcile"] = map[string]any{
		"rule":                  "submits that missed the 100 ms limit while an advance was in flight, over all misses",
		"misses":                misses,
		"misses_during_advance": explained,
	}
}

// horizonLayers sets the horizon metrics of the replayed services.
func horizonLayers(rep *report, sts []*replayStats) {
	var first, last, submit []float64
	admitted, replanned, frozen := 0, 0, 0
	for _, st := range sts {
		d := (len(st.advanceMS) + 9) / 10
		first = append(first, st.advanceMS[:d]...)
		last = append(last, st.advanceMS[len(st.advanceMS)-d:]...)
		submit = append(submit, st.submitUS...)
		admitted += st.admitted
		replanned += st.replanned
		frozen += st.frozenDeliveries
	}
	rep.set("horizon.advance_ms_first_decile", "ms", mean(first))
	rep.set("horizon.advance_ms_last_decile", "ms", mean(last))
	rep.set("horizon.replanned_per_admitted", "ratio", float64(replanned)/float64(max(admitted, 1)))
	rep.set("horizon.frozen_deliveries", "count", float64(frozen))
	s50, _ := percentile(submit, 50)
	s99, _ := tail(submit, 99)
	rep.set("horizon.submit_us_p50", "us", s50)
	rep.set("horizon.submit_us_p99", "us", s99)
}

func ackedSet(samples []sample) workload.Set {
	var out workload.Set
	for _, s := range samples {
		if s.ok() {
			out = append(out, s.req)
		}
	}
	return out
}

func getJSON(url string, v any) error {
	c := newClient()
	defer c.CloseIdleConnections()
	status, body, err := call(c, url, nil, -1, -1)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d, %v: %.200s", url, status, err, body)
	}
	return json.Unmarshal(body, v)
}

func timingsMS(ts []timing) []float64 {
	var out []float64
	for _, t := range ts {
		out = append(out, t.ms())
	}
	return out
}

func maxOf(xs []float64) float64 {
	v, _ := percentile(xs, 100)
	return v
}

func minOf(xs []float64) float64 {
	v, _ := percentile(xs, 0)
	return v
}
