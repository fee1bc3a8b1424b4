package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// solveInput is one solve: the requests to plan per video in video order,
// the frozen prefix each file is planned on top of (empty for a batch),
// and every reservation the plan must cover.
type solveInput struct {
	reqs   map[media.VideoID][]workload.Request
	videos []media.VideoID
	frozen map[media.VideoID]*schedule.FileSchedule
	all    workload.Set
}

// solveCounts accumulates the work the decomposed solves did.
type solveCounts struct {
	solves, overflows, victims int
}

// decompose re-runs the solve sequence scheduler.Schedule and horizon's
// Advance share — phase-1 IVS per file over the worker pool, the
// occupancy ledger and its overflows, SORP, validation and the ledger
// re-check — through each layer's public call, one span per call under
// root.
func decompose(tr *tracer, req int64, root int, m *cost.Model, in solveInput, counts *solveCounts) (*schedule.Schedule, error) {
	ctx := context.Background()
	topo, cat := m.Book().Topology(), m.Catalog()
	fss := make([]*schedule.FileSchedule, len(in.videos))
	errs := make([]error, len(in.videos))
	p1 := tr.begin(req, root, "ivs.phase1")
	err := parallel.Do(ctx, 0, len(in.videos), func(i int) {
		sp := tr.begin(req, p1, "ivs.file")
		vid := in.videos[i]
		fss[i], errs[i] = ivs.ScheduleFile(m, vid, in.reqs[vid], ivs.Options{Frozen: in.frozen[vid]})
		tr.end(sp)
	})
	tr.end(p1)
	if err != nil {
		return nil, err
	}
	s := schedule.New()
	for i, fs := range fss {
		if errs[i] != nil {
			return nil, errs[i]
		}
		s.Put(fs)
	}

	sp := tr.begin(req, root, "occupancy.build")
	overflows := len(occupancy.FromSchedule(topo, cat, s).AllOverflows())
	tr.end(sp)
	counts.solves++
	counts.overflows += overflows
	if overflows > 0 {
		sp = tr.begin(req, root, "sorp.resolve")
		res, err := sorp.ResolveContext(ctx, m, s, in.reqs, sorp.Options{Frozen: in.frozen})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s = res.Schedule
		counts.victims += len(res.Victims)
	}

	sp = tr.begin(req, root, "schedule.validate")
	err = s.Validate(topo, cat, in.all)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(req, root, "occupancy.build")
	left := len(occupancy.FromSchedule(topo, cat, s).AllOverflows())
	tr.end(sp)
	if left > 0 {
		return nil, fmt.Errorf("decomposed solve leaves %d overflows", left)
	}
	return s, nil
}

// epochInput rebuilds what an Advance to `to` plans: the committed
// schedule split at the new horizon into a frozen prefix per file and the
// requests to re-plan, together with the pending intake.
func epochInput(committed *schedule.Schedule, to simtime.Time, pending, accepted workload.Set) solveInput {
	in := solveInput{
		reqs:   map[media.VideoID][]workload.Request{},
		frozen: map[media.VideoID]*schedule.FileSchedule{},
		all:    accepted,
	}
	for _, vid := range committed.VideoIDs() {
		pre, replan := splitAt(committed.File(vid), to)
		if len(pre.Deliveries) > 0 || len(pre.Residencies) > 0 {
			in.frozen[vid] = pre
		}
		if len(replan) > 0 {
			in.reqs[vid] = replan
		}
	}
	for _, r := range pending {
		in.reqs[r.Video] = append(in.reqs[r.Video], r)
	}
	seen := map[media.VideoID]bool{}
	for vid, rs := range in.reqs {
		workload.SortChronological(rs)
		seen[vid] = true
	}
	for vid := range in.frozen {
		seen[vid] = true
	}
	for vid := range seen {
		in.videos = append(in.videos, vid)
	}
	sort.Slice(in.videos, func(i, j int) bool { return in.videos[i] < in.videos[j] })
	return in
}

// splitAt splits one committed file at the horizon the way horizon's
// Advance does: deliveries starting and residencies loaded before it
// freeze, a frozen residency keeps only its frozen readers and ends at the
// last of them, and the later deliveries' requests are planned again. The
// byte-identity check against the service's own Advance guards the copy.
func splitAt(fs *schedule.FileSchedule, horizon simtime.Time) (*schedule.FileSchedule, []workload.Request) {
	fd := 0
	for fd < len(fs.Deliveries) && fs.Deliveries[fd].Start < horizon {
		fd++
	}
	fr := 0
	for fr < len(fs.Residencies) && fs.Residencies[fr].Load < horizon {
		fr++
	}
	pre := &schedule.FileSchedule{Video: fs.Video, Deliveries: fs.Deliveries[:fd:fd]}
	for _, c := range fs.Residencies[:fr] {
		kept := make([]int, 0, len(c.Services))
		last := c.Load
		for _, di := range c.Services {
			if di < fd {
				kept = append(kept, di)
				last = simtime.Max(last, fs.Deliveries[di].Start)
			}
		}
		c.Services = kept
		if c.FedBy != schedule.PrePlacedFeed {
			c.LastService = last
		}
		pre.Residencies = append(pre.Residencies, c)
	}
	var replan []workload.Request
	for _, d := range fs.Deliveries[fd:] {
		replan = append(replan, workload.Request{User: d.User, Video: d.Video, Start: d.Start})
	}
	return pre, replan
}

// replayStats is what replaying one service's intake sequence measured.
type replayStats struct {
	submitUS, durableUS []float64 // Submit on an in-memory and a durable service
	advanceMS           []float64 // Advance, in epoch order
	admitted, replanned int
	frozenDeliveries    int // carried through by the last epoch
}

// replay re-executes one service's recorded submits and advances on a
// fresh in-memory horizon service. Before each Advance it decomposes the
// epoch's solve into its layers from the same state, and checks that the
// service's Advance commits a byte-identical plan. With walDir set it
// also submits every reservation to a durable service there, so that
// the journal's share of a submit can be read off the difference.
func replay(tr *tracer, reqBase int64, m *cost.Model, hcfg horizon.Config, ops []op, walDir string, counts *solveCounts) (*replayStats, error) {
	svc := horizon.New(m, hcfg)
	var durable *horizon.Service
	if walDir != "" {
		var err error
		if durable, err = horizon.Recover(walDir, m, horizon.Config{Fsync: wal.FsyncAlways}); err != nil {
			return nil, err
		}
		defer durable.Close()
	}
	st := &replayStats{}
	var pending, accepted workload.Set
	ctx := context.Background()
	for _, o := range ops {
		if !o.advance {
			t0 := time.Now()
			_, err := svc.Submit(o.at, o.req)
			st.submitUS = append(st.submitUS, float64(time.Since(t0))/1e3)
			if err != nil {
				return nil, fmt.Errorf("replay submit: %w", err)
			}
			if durable != nil {
				t0 = time.Now()
				_, err := durable.Submit(o.at, o.req)
				st.durableUS = append(st.durableUS, float64(time.Since(t0))/1e3)
				if err != nil {
					return nil, fmt.Errorf("replay durable submit: %w", err)
				}
			}
			pending = append(pending, o.req)
			accepted = append(accepted, o.req)
			continue
		}
		id := reqBase + int64(len(st.advanceMS))
		root := tr.begin(id, -1, "solve")
		got, err := decompose(tr, id, root, m, epochInput(svc.Committed(), o.to, pending, accepted), counts)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("decomposed epoch %d: %w", len(st.advanceMS), err)
		}
		sp := tr.begin(id, -1, "horizon.advance")
		t0 := time.Now()
		res, err := svc.Advance(ctx, o.to)
		st.advanceMS = append(st.advanceMS, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay advance: %w", err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(svc.Committed())
		if !bytes.Equal(a, b) {
			return nil, fmt.Errorf("decomposed epoch %d differs from horizon's Advance", res.Epoch)
		}
		st.admitted += res.Admitted
		st.replanned += res.Replanned
		st.frozenDeliveries = res.FrozenDeliveries
		pending = nil
	}
	return st, nil
}

// solverLayers sets the per-layer solver metrics from the spans of the
// decomposed solves, per solve, and returns every layer's self time per
// solve in milliseconds.
func solverLayers(rep *report, spans []span, counts solveCounts) map[string]float64 {
	tree := treeOf(spans, "solve")
	n := float64(max(counts.solves, 1))
	ls := layerSelf(tree)
	perSolve := map[string]float64{}
	for l, v := range ls {
		perSolve[l] = v / n
	}
	maxFile := map[int64]float64{}
	for _, s := range tree {
		if s.Name == "ivs.file" {
			maxFile[s.Req] = max(maxFile[s.Req], float64(s.dur())/1e6)
		}
	}
	var worst []float64
	for _, v := range maxFile {
		worst = append(worst, v)
	}
	rep.set("solve.count", "count", float64(counts.solves))
	rep.set("solve.glue_ms", "ms", perSolve["solve"])
	rep.set("ivs.self_ms", "ms", perSolve["ivs"])
	rep.set("ivs.max_file_ms", "ms", mean(worst))
	rep.set("occupancy.build_ms", "ms", perSolve["occupancy"])
	rep.set("occupancy.overflows", "count", float64(counts.overflows)/n)
	rep.set("sorp.self_ms", "ms", perSolve["sorp"])
	rep.set("sorp.victims", "count", float64(counts.victims)/n)
	rep.set("sorp.victims_per_overflow", "ratio", float64(counts.victims)/float64(max(counts.overflows, 1)))
	rep.set("schedule.validate_ms", "ms", perSolve["schedule"])
	if v, ok := perSolve["scheduler"]; ok {
		rep.set("scheduler.direct_ms", "ms", v)
	}
	return perSolve
}

// treeOf returns the spans whose outermost ancestor is named root.
func treeOf(spans []span, root string) []span {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []span
	for _, s := range spans {
		top := s
		for top.Parent >= 0 {
			top = byID[top.Parent]
		}
		if top.Name == root {
			out = append(out, s)
		}
	}
	return out
}

// selfOf returns the self times in milliseconds of the spans named name.
func selfOf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}
