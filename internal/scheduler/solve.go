package scheduler

import (
	"context"
	"fmt"
	"sort"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/workload"
)

// Problem is one solve's input. The one-shot scheduler fills Requests,
// Seeds and Reservations; the rolling horizon fills Requests, Frozen and
// Reservations.
type Problem struct {
	// Requests holds, per video, the requests to plan in chronological
	// order. SORP re-plans a victim's whole list.
	Requests map[media.VideoID][]workload.Request
	// Frozen holds, per video, the committed prefix the file is planned on
	// top of (see ivs.Options.Frozen). A video with a prefix but no
	// requests carries the prefix through unchanged.
	Frozen map[media.VideoID]*schedule.FileSchedule
	// Seeds holds, per video, the standing pre-placed copies (see
	// ivs.Options.Seeds). A seeded video nobody requested still occupies
	// space and money, so it is planned too.
	Seeds map[media.VideoID][]schedule.Residency
	// Reservations is every reservation the plan must serve; the result
	// is validated against it.
	Reservations workload.Set
}

// videos returns every video the plan must hold a file schedule for, in
// ascending ID order: requested, frozen-only and seeded-only ones.
func (p Problem) videos() []media.VideoID {
	set := make(map[media.VideoID]bool, len(p.Requests)+len(p.Frozen))
	for vid := range p.Requests {
		set[vid] = true
	}
	for vid, fs := range p.Frozen {
		if fs != nil {
			set[vid] = true
		}
	}
	for vid, seeds := range p.Seeds {
		if len(seeds) > 0 {
			set[vid] = true
		}
	}
	out := make([]media.VideoID, 0, len(set))
	for vid := range set {
		out = append(out, vid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Solve runs the paper's two-phase heuristic (§3.1) on p: phase-1 IVS per
// file over the worker pool, integration and the overflow count, SORP
// until no storage overflows, then validation against p.Reservations and,
// when SORP changed the plan, a from-scratch capacity re-check. It reads
// cfg's Policy, Metric, Workers and SkipResolution; seeds come from p.
//
// The returned Outcome carries the plan, the overflow count, the victims
// and both costs; the refinement fields are left zero. Phase-1 files are
// merged in video order and SORP picks victims by a total order, so the
// plan is byte-identical for every worker count. ctx is checked before
// every phase-1 dispatch and every SORP iteration.
func Solve(ctx context.Context, m *cost.Model, p Problem, cfg Config) (*Outcome, error) {
	videos := p.videos()
	fss := make([]*schedule.FileSchedule, len(videos))
	errs := make([]error, len(videos))
	if err := parallel.Do(ctx, cfg.Workers, len(videos), func(i int) {
		vid := videos[i]
		fss[i], errs[i] = ivs.ScheduleFile(m, vid, p.Requests[vid],
			ivs.Options{Policy: cfg.Policy, Seeds: p.Seeds[vid], Frozen: p.Frozen[vid]})
	}); err != nil {
		return nil, fmt.Errorf("scheduler: phase 1 aborted: %w", err)
	}
	s := schedule.New()
	for i, vid := range videos {
		if errs[i] != nil {
			return nil, fmt.Errorf("scheduler: phase 1 for video %d: %w", vid, errs[i])
		}
		s.Put(fss[i])
	}

	out := &Outcome{Schedule: s}
	out.Overflows = len(occupancy.FromSchedule(m.Book().Topology(), m.Catalog(), s).AllOverflows())
	resolve := !cfg.SkipResolution && out.Overflows > 0
	if resolve {
		res, err := sorp.ResolveContext(ctx, m, s, p.Requests, sorp.Options{
			Metric: cfg.Metric, Policy: cfg.Policy, Seeds: p.Seeds, Frozen: p.Frozen, Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("scheduler: phase 2: %w", err)
		}
		out.Schedule = res.Schedule
		out.Victims = res.Victims
		out.Phase1Cost, out.FinalCost = res.CostBefore, res.CostAfter
	} else {
		out.Phase1Cost = m.ScheduleCost(s)
		out.FinalCost = out.Phase1Cost
	}

	// The first ledger already showed the unresolved plan's overflows, so
	// only a plan SORP rewrote is counted again from scratch.
	if err := check(m, out.Schedule, p.Reservations, resolve); err != nil {
		return nil, err
	}
	return out, nil
}

// check validates s against every reservation it must serve and, with
// recount set, rebuilds the occupancy ledger from scratch to confirm that
// no storage overflows.
func check(m *cost.Model, s *schedule.Schedule, reqs workload.Set, recount bool) error {
	topo := m.Book().Topology()
	if err := s.Validate(topo, m.Catalog(), reqs); err != nil {
		return fmt.Errorf("scheduler: produced invalid schedule: %w", err)
	}
	if !recount {
		return nil
	}
	if ovs := occupancy.FromSchedule(topo, m.Catalog(), s).AllOverflows(); len(ovs) > 0 {
		return fmt.Errorf("scheduler: %d overflows survive resolution, first %v", len(ovs), ovs[0])
	}
	return nil
}
