// Package sorp implements the Storage Overflow Resolution phase of the
// paper's heuristic (§4): after the individually-scheduled files are
// integrated, some intermediate storages may be over-committed during some
// intervals. SORP repeatedly selects the victim file whose rescheduling
// yields the most improvement per unit of overhead — measured by one of
// four heat metrics (Eqs. 8–11) — and recomputes its schedule with the
// Rejective Greedy (§4.4): the victim may not occupy the overflowing
// (interval, storage) pair and must respect the remaining capacity of every
// other storage.
package sorp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// HeatMetric selects the victim-ranking criterion (paper §4.3).
type HeatMetric int

const (
	// Period is Method 1 (Eq. 8): the length X of the improved period.
	Period HeatMetric = iota + 1
	// PeriodPerCost is Method 2 (Eq. 9): X divided by the overhead cost.
	PeriodPerCost
	// Space is Method 3 (Eq. 10): the amortized time–space product ΔS
	// removed from the overflow window (Eq. 5).
	Space
	// SpacePerCost is Method 4 (Eq. 11): ΔS divided by the overhead cost.
	// The paper finds it the best performer on average.
	SpacePerCost
)

func (h HeatMetric) String() string {
	switch h {
	case Period:
		return "period"
	case PeriodPerCost:
		return "period-per-cost"
	case Space:
		return "space"
	case SpacePerCost:
		return "space-per-cost"
	default:
		return fmt.Sprintf("HeatMetric(%d)", int(h))
	}
}

// Options configures a Resolve run.
type Options struct {
	// Metric ranks victims; defaults to SpacePerCost (Method 4).
	Metric HeatMetric
	// Policy is the caching policy handed to the rejective greedy.
	Policy ivs.Policy
	// MaxIterations bounds the resolution loop as a safety valve; 0 means
	// a generous default proportional to the LIVE schedule size plus the
	// reschedulable request total, re-evaluated every iteration (a bound
	// frozen from the input schedule can trip on legitimately convergent
	// runs, since rescheduling a victim may grow its residency count).
	MaxIterations int
	// Workers bounds the concurrent evaluation of candidate reschedules
	// during victim selection: each candidate works on its own overlay
	// view of the ledger, and the winner is picked by the same total
	// order as a sequential run, so the victim sequence is byte-identical
	// for any worker count. 0 means GOMAXPROCS, 1 forces the sequential
	// path.
	Workers int
	// Seeds are the pre-placed standing copies per video (strategic
	// replication). Rescheduling a victim re-seeds them: they are placed
	// infrastructure the resolver can neither move nor strip, so they are
	// never selected as victims.
	Seeds map[media.VideoID][]schedule.Residency
	// Frozen holds, per video, the immutable prefix committed by earlier
	// epochs of a rolling-horizon run (see internal/horizon). A frozen
	// prefix's records lead the file's slices; its residencies are never
	// selected as victims, and rescheduling a file re-plans only its
	// un-frozen requests on top of the prefix. The reqs map handed to
	// Resolve must then hold only the un-frozen requests of each file.
	Frozen map[media.VideoID]*schedule.FileSchedule
}

// Victim records one rescheduling decision, for diagnostics and the
// heat-metric study of Experiment 4.
type Victim struct {
	Video    media.VideoID
	Node     topology.NodeID
	Window   simtime.Interval
	Heat     float64
	Overhead units.Money
}

// MarshalJSON encodes a victim as its plain struct would, except that a
// heat encoding/json cannot represent (+Inf when the overhead is zero or
// negative) is written as a string such as "+Inf". Finite heats encode
// byte-for-byte as a plain struct.
func (v Victim) MarshalJSON() ([]byte, error) {
	type plain Victim
	if !math.IsInf(v.Heat, 0) && !math.IsNaN(v.Heat) {
		return json.Marshal(plain(v))
	}
	return json.Marshal(struct {
		plain
		Heat string
	}{plain(v), strconv.FormatFloat(v.Heat, 'g', -1, 64)})
}

// UnmarshalJSON decodes what MarshalJSON writes: a heat is either a JSON
// number or a string strconv.ParseFloat accepts.
func (v *Victim) UnmarshalJSON(b []byte) error {
	type plain Victim
	var aux struct {
		plain
		Heat json.RawMessage
	}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	*v = Victim(aux.plain)
	if len(aux.Heat) == 0 {
		return nil
	}
	if aux.Heat[0] != '"' {
		return json.Unmarshal(aux.Heat, &v.Heat)
	}
	var s string
	if err := json.Unmarshal(aux.Heat, &s); err != nil {
		return err
	}
	h, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("sorp: victim heat %q: %w", s, err)
	}
	v.Heat = h
	return nil
}

// Result summarizes a resolution run.
type Result struct {
	Schedule         *schedule.Schedule
	Victims          []Victim
	InitialOverflows int
	CostBefore       units.Money
	CostAfter        units.Money
}

// Delta returns the total cost increase caused by overflow resolution,
// the paper's Ψ(S_SORP) − Ψ(S).
func (r *Result) Delta() units.Money { return r.CostAfter - r.CostBefore }

// Resolve runs the SORP loop on the integrated schedule s. The request
// partition must be the one the schedule was built from (rescheduling a
// victim re-serves its whole request list R_i). The input schedule is not
// modified; the resolved schedule is returned in the Result.
func Resolve(m *cost.Model, s *schedule.Schedule, reqs map[media.VideoID][]workload.Request, opts Options) (*Result, error) {
	return ResolveContext(context.Background(), m, s, reqs, opts)
}

// ResolveContext is Resolve with cancellation: the context is checked at
// the top of every victim iteration, so a cancelled or timed-out ctx stops
// the (potentially long) resolution loop promptly with ctx.Err() wrapped
// in the returned error.
func ResolveContext(ctx context.Context, m *cost.Model, s *schedule.Schedule, reqs map[media.VideoID][]workload.Request, opts Options) (*Result, error) {
	for _, vid := range s.VideoIDs() {
		want := len(s.Files[vid].Deliveries)
		if pre := opts.Frozen[vid]; pre != nil {
			want -= len(pre.Deliveries)
		}
		if got := len(reqs[vid]); got != want {
			return nil, fmt.Errorf("sorp: video %d has %d un-frozen requests but %d reschedulable deliveries", vid, got, want)
		}
	}
	return resolve(ctx, m, s, reqs, opts, newResolveCache())
}

// resolve is ResolveContext's loop on a given cache: the tests swap the
// cache's memo rule for reference rules through it.
func resolve(ctx context.Context, m *cost.Model, s *schedule.Schedule, reqs map[media.VideoID][]workload.Request,
	opts Options, cache *resolveCache) (*Result, error) {
	if opts.Metric == 0 {
		opts.Metric = SpacePerCost
	}
	topo := m.Book().Topology()
	nreq := 0
	for _, vid := range s.VideoIDs() {
		nreq += len(reqs[vid])
	}
	work := s.Clone()
	ledger := occupancy.FromSchedule(topo, m.Catalog(), work)

	res := &Result{
		Schedule:         work,
		InitialOverflows: len(ledger.AllOverflows()),
		CostBefore:       m.ScheduleCost(s),
	}

	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sorp: resolution aborted: %w", err)
		}
		overflows := ledger.AllOverflows()
		if len(overflows) == 0 {
			break
		}
		if iter >= iterationBound(opts.MaxIterations, work, nreq) {
			return nil, fmt.Errorf("sorp: no resolution after %d iterations (%d overflows remain)",
				iter, len(overflows))
		}
		best, found, err := selectVictim(ctx, m, work, ledger, overflows, reqs, opts, cache)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("sorp: %d overflows but no reschedulable victim", len(overflows))
		}
		if best.schedule == nil {
			// The winner was revalidated from the pair cache, which keeps
			// only the decision-ranking fields. Replay the reschedule on a
			// fresh view of the current ledger: the memo rule guarantees the
			// replay makes the identical placement decisions, and the check
			// below holds it to that bit for bit.
			vid := best.record.Video
			of := occupancy.Overflow{Node: best.record.Node, Interval: best.record.Window}
			rs := rescheduleFile(m, ledger.OverlayWithout(vid), vid, of, reqs[vid], opts, cache.fileCost[vid])
			if !rs.ok || math.Float64bits(float64(rs.overhead)) != math.Float64bits(float64(best.overhead)) {
				return nil, fmt.Errorf("sorp: memoized victim (video %d) replayed to overhead %v (ok=%t), memo holds %v",
					vid, rs.overhead, rs.ok, best.overhead)
			}
			best.schedule, best.ledger, best.newCost = rs.fs, rs.ledger, rs.newCost
		}
		// Commit the winning candidate: materializing its overlay view
		// yields the ledger with the rescheduled file applied.
		next := best.ledger.Flatten()
		cache.logCommit(m, ledger, next, work.File(best.record.Video), best.schedule)
		work.Put(best.schedule)
		ledger = next
		cache.fileVer[best.record.Video]++
		cache.fileCost[best.record.Video] = best.newCost
		res.Victims = append(res.Victims, best.record)
	}
	res.CostAfter = m.ScheduleCost(work)
	return res, nil
}

type candidate struct {
	schedule *schedule.FileSchedule
	ledger   *occupancy.Ledger
	record   Victim
	heat     float64
	overhead units.Money
	newCost  units.Money
}

// pairKey identifies one deduped reschedule evaluation: resolving overflow
// (node, interval) by re-planning the whole file of one video.
type pairKey struct {
	node     topology.NodeID
	interval simtime.Interval
	video    media.VideoID
}

// pairEntry memoizes the outcome of one (overflow, video) evaluation
// across resolution iterations. The rejective greedy reads the base ledger
// only through CanFit answers on its view, so the memo stands in for a
// re-run while (a) the victim file itself is unchanged (fileVer) and (b)
// no commit since it was taken can have flipped one of those answers (see
// resolveCache.reusable): unchanged answers replay to an identical
// schedule and identical overhead. reads holds the evaluation's per-node
// query trace and the node versions it was last proven current at. heats
// memoizes computeHeat per involved residency (ref.Index); the improvement
// term depends only on the residency and the overflow window, both pinned
// by the validity conditions.
type pairEntry struct {
	ok       bool
	overhead units.Money
	fileVer  uint64
	reads    []memoRead
	heats    map[int]float64
}

// memoRead is one node's read footprint plus the node's version when the
// footprint was last proven current.
type memoRead struct {
	occupancy.Read
	ver uint64
}

// copySpan is one copy a commit added or dropped at a node: its Eq. 6 peak
// γ·size and its support.
type copySpan struct {
	peak float64
	sup  simtime.Interval
}

// nodeCommit records how one commit moved one node's profile: the node's
// version before and after, and the victim's copies that differ between
// its old and new file there. A node can move with no differing copy (the
// commit re-adds the victim's unchanged copies); only float residue then
// separates the profiles.
type nodeCommit struct {
	from, to uint64
	copies   []copySpan
}

// residueMargin bounds, in bytes, how far two sweeps of the same exact
// profile may disagree after a commit rebuilt the node's prefix sums:
// occupancy totals carry milli-byte noise at most (see the ledger's eps).
const residueMargin = 1.0

// resolveCache carries SORP's incremental state across iterations: the
// (overflow, video) evaluation memos, the per-node commit log they are
// revalidated against, and, per video, the committed file's version
// counter and Ψ contribution. Overheads are Ψ deltas against the cached
// per-file cost instead of full re-costings.
type resolveCache struct {
	pairs    map[pairKey]*pairEntry
	fileVer  map[media.VideoID]uint64
	fileCost map[media.VideoID]units.Money
	// commits holds, per node, the commits that moved its version, in
	// commit order.
	commits map[topology.NodeID][]nodeCommit
	// reuse decides whether a memo may stand in for re-running its
	// evaluation against the current ledger: reusable, unless a test
	// substitutes a reference rule.
	reuse func(pe *pairEntry, ledger *occupancy.Ledger, fileVer uint64) bool
}

func newResolveCache() *resolveCache {
	c := &resolveCache{
		pairs:    make(map[pairKey]*pairEntry),
		fileVer:  make(map[media.VideoID]uint64),
		fileCost: make(map[media.VideoID]units.Money),
		commits:  make(map[topology.NodeID][]nodeCommit),
	}
	c.reuse = c.reusable
	return c
}

// reusable is the exact memo rule. At a read node whose version has moved
// since the memo was taken, the commits in between changed the profile
// inside the read hull by at most their drift (see drift). While the drift
// stays below the read's slack no evaluated total can have crossed the fit
// threshold, so every CanFit answer — and with them the whole reschedule —
// is unchanged. A kept entry rolls its versions forward and is charged the
// drift against its slack, so drift across many commits adds up. A
// whole-profile read demands an unchanged version. A rejected entry is
// discarded, so rolling some of its reads forward first is harmless.
func (c *resolveCache) reusable(pe *pairEntry, ledger *occupancy.Ledger, fileVer uint64) bool {
	if pe.fileVer != fileVer {
		return false
	}
	for i := range pe.reads {
		r := &pe.reads[i]
		cur := ledger.Version(r.Node)
		if cur == r.ver {
			continue
		}
		if r.Whole {
			return false
		}
		drift, ok := c.drift(r.Node, r.ver, cur, r.Hull)
		if !ok || drift >= r.Slack {
			return false
		}
		r.Slack -= drift
		r.ver = cur
	}
	return true
}

// drift bounds how far the node's profile inside hull moved between
// versions from and to: the summed peaks of the logged copies whose support
// meets the hull, plus residueMargin. ok is false when the log does not
// chain from one version to the other.
func (c *resolveCache) drift(node topology.NodeID, from, to uint64, hull simtime.Interval) (float64, bool) {
	log := c.commits[node]
	i := sort.Search(len(log), func(k int) bool { return log[k].from >= from })
	sum := residueMargin
	for ; i < len(log) && log[i].from == from && from != to; i++ {
		for _, cs := range log[i].copies {
			if cs.sup.Start <= hull.End && hull.Start <= cs.sup.End {
				sum += cs.peak
			}
		}
		from = log[i].to
	}
	return sum, from == to
}

// logCommit logs the commit of newFile over oldFile: for every node whose
// version it moves from before to after, the copies that differ between
// the two files there, in file order.
func (c *resolveCache) logCommit(m *cost.Model, before, after *occupancy.Ledger, oldFile, newFile *schedule.FileSchedule) {
	v := m.Catalog().Video(newFile.Video)
	type profile struct {
		loc        topology.NodeID
		load, last simtime.Time
	}
	// net counts each profile's copies in the new file minus the old one.
	net := make(map[profile]int)
	for _, r := range oldFile.Residencies {
		net[profile{r.Loc, r.Load, r.LastService}]--
	}
	for _, r := range newFile.Residencies {
		net[profile{r.Loc, r.Load, r.LastService}]++
	}
	moved := make(map[topology.NodeID][]copySpan)
	for _, side := range []struct {
		rs   []schedule.Residency
		sign int
	}{{oldFile.Residencies, -1}, {newFile.Residencies, 1}} {
		for _, r := range side.rs {
			p := profile{r.Loc, r.Load, r.LastService}
			if net[p]*side.sign <= 0 {
				continue // matched by a copy on the other side
			}
			net[p] -= side.sign
			if peak := r.Gamma(v.Playback) * v.Size.Float(); peak != 0 {
				moved[r.Loc] = append(moved[r.Loc], copySpan{peak: peak, sup: r.Support(v.Playback)})
			}
		}
	}
	for n := 0; n < m.Book().Topology().NumNodes(); n++ {
		node := topology.NodeID(n)
		if from, to := before.Version(node), after.Version(node); from != to {
			c.commits[node] = append(c.commits[node], nodeCommit{from: from, to: to, copies: moved[node]})
		}
	}
}

// iterationBound returns the safety valve for the resolution loop. An
// explicit Options.MaxIterations always wins; the default is proportional
// to the live schedule plus the reschedulable request total. It must be
// re-evaluated against the LIVE schedule each iteration: rescheduling a
// victim may legitimately grow its residency count (the rejective greedy
// spreads copies across storages the banned one can't hold), so a bound
// frozen from the input schedule's residency count can trip on convergent
// runs.
func iterationBound(configured int, work *schedule.Schedule, nreq int) int {
	if configured > 0 {
		return configured
	}
	return 10 * (work.NumResidencies() + nreq + 1)
}

// liveVictim resolves an overflow ref against the working schedule and
// reports whether the residency is victimizable.
func liveVictim(work *schedule.Schedule, opts Options, ref occupancy.Ref) (schedule.Residency, bool, error) {
	fs := work.File(ref.Video)
	if fs == nil || ref.Index >= len(fs.Residencies) {
		return schedule.Residency{}, false, fmt.Errorf("sorp: dangling overflow ref %+v", ref)
	}
	ci := fs.Residencies[ref.Index]
	if ci.FedBy == schedule.PrePlacedFeed {
		return ci, false, nil // standing copies cannot be victimized
	}
	if pre := opts.Frozen[ref.Video]; pre != nil && ref.Index < len(pre.Residencies) &&
		ci.LastService <= pre.Residencies[ref.Index].LastService {
		// Committed history: the copy sits at its frozen span and
		// rescheduling could not touch it. A frozen copy EXTENDED
		// this epoch is a victim like any other — the extension is
		// a live decision the rejective greedy can roll back (the
		// committed span itself is re-installed untouched).
		return ci, false, nil
	}
	return ci, true, nil
}

// selectVictim evaluates rescheduling every file involved in every current
// overflow and returns the candidate with the largest heat (paper Table 3,
// lines 8–18). Heat ties break toward lower overhead, then lower video ID,
// for determinism.
//
// Rescheduling operates on whole files; each involved residency c_i is
// evaluated for its heat but the expensive reschedule is deduped by
// (overflow, video) — the paper's loop is per c_i, yet for a given pair
// the reschedule result is identical and only the improvement term
// differs. Pairs whose memoized evaluation is still valid (see pairEntry)
// are reused outright; the rest run fresh. The fresh reschedules are
// independent — each works on its own overlay view — so they are evaluated
// across the worker pool; the views are taken sequentially up front
// (Ledger.OverlayWithout builds the base's snapshots in place) and the
// winner is then picked by a sequential walk in overflow/ref order with
// the better() total order. Both the memo state and the walk are
// independent of worker count and completion order, so the selected victim
// sequence stays byte-identical for any Workers setting.
func selectVictim(ctx context.Context, m *cost.Model, work *schedule.Schedule, ledger *occupancy.Ledger,
	overflows []occupancy.Overflow, reqs map[media.VideoID][]workload.Request, opts Options,
	cache *resolveCache) (candidate, bool, error) {

	type reschedJob struct {
		overflow int
		video    media.VideoID
		tmp      *occupancy.Ledger
		entry    *pairEntry
		result   reschedResult
	}
	var jobs []reschedJob
	pairOf := make([]map[media.VideoID]*pairEntry, len(overflows))
	refsOf := make([][]occupancy.Ref, len(overflows))
	for oi, of := range overflows {
		refs := ledger.OverflowSet(of.Node, of.Interval)
		refsOf[oi] = refs
		pairOf[oi] = make(map[media.VideoID]*pairEntry, len(refs))
		for _, ref := range refs {
			if _, live, err := liveVictim(work, opts, ref); err != nil {
				return candidate{}, false, err
			} else if !live {
				continue
			}
			if _, dup := pairOf[oi][ref.Video]; dup {
				continue
			}
			key := pairKey{node: of.Node, interval: of.Interval, video: ref.Video}
			if pe := cache.pairs[key]; pe != nil && cache.reuse(pe, ledger, cache.fileVer[ref.Video]) {
				pairOf[oi][ref.Video] = pe
				continue
			}
			if _, ok := cache.fileCost[ref.Video]; !ok {
				cache.fileCost[ref.Video] = m.FileCost(work.File(ref.Video))
			}
			pe := &pairEntry{fileVer: cache.fileVer[ref.Video]}
			cache.pairs[key] = pe
			pairOf[oi][ref.Video] = pe
			tmp := ledger.OverlayWithout(ref.Video)
			tmp.TrackQueries()
			jobs = append(jobs, reschedJob{overflow: oi, video: ref.Video, tmp: tmp, entry: pe})
		}
	}

	if err := parallel.Do(ctx, opts.Workers, len(jobs), func(i int) {
		j := &jobs[i]
		j.result = rescheduleFile(m, j.tmp, j.video, overflows[j.overflow], reqs[j.video], opts,
			cache.fileCost[j.video])
	}); err != nil {
		return candidate{}, false, fmt.Errorf("sorp: victim selection aborted: %w", err)
	}
	for i := range jobs {
		j := &jobs[i]
		j.entry.ok = j.result.ok
		j.entry.overhead = j.result.overhead
		for _, r := range j.tmp.Reads() {
			j.entry.reads = append(j.entry.reads, memoRead{Read: r, ver: ledger.Version(r.Node)})
		}
	}

	// Fresh results (with a replayable schedule+ledger in hand) per pair,
	// so a winning fresh pair commits without a replay.
	fresh := make(map[*pairEntry]*reschedResult, len(jobs))
	for i := range jobs {
		fresh[jobs[i].entry] = &jobs[i].result
	}

	var best candidate
	found := false
	for oi, of := range overflows {
		for _, ref := range refsOf[oi] {
			ci, live, err := liveVictim(work, opts, ref)
			if err != nil {
				return candidate{}, false, err
			}
			if !live {
				continue
			}
			pe := pairOf[oi][ref.Video]
			if !pe.ok {
				continue
			}
			heat, cached := pe.heats[ref.Index]
			if !cached {
				heat = computeHeat(m, ci, of, pe.overhead, opts.Metric)
				if pe.heats == nil {
					pe.heats = make(map[int]float64, 4)
				}
				pe.heats[ref.Index] = heat
			}
			cand := candidate{
				heat:     heat,
				overhead: pe.overhead,
				record: Victim{
					Video:    ref.Video,
					Node:     of.Node,
					Window:   of.Interval,
					Heat:     heat,
					Overhead: pe.overhead,
				},
			}
			if rs := fresh[pe]; rs != nil {
				cand.schedule, cand.ledger, cand.newCost = rs.fs, rs.ledger, rs.newCost
			}
			if !found || better(cand, best) {
				best = cand
				found = true
			}
		}
	}
	return best, found, nil
}

func better(a, b candidate) bool {
	if a.heat != b.heat {
		return a.heat > b.heat
	}
	if a.overhead != b.overhead {
		return a.overhead < b.overhead
	}
	return a.record.Video < b.record.Video
}

type reschedResult struct {
	fs       *schedule.FileSchedule
	ledger   *occupancy.Ledger
	overhead units.Money
	newCost  units.Money
	ok       bool
}

// rescheduleFile re-plans one victim file on tmp, a view of the base
// ledger with the victim already removed (Ledger.OverlayWithout; taken by
// the caller sequentially, so the concurrent evaluation path can fan the
// views out afterwards). baseCost is the file's current Ψ contribution,
// maintained incrementally by the resolve cache; the overhead is the Ψ
// delta against it.
func rescheduleFile(m *cost.Model, tmp *occupancy.Ledger,
	vid media.VideoID, of occupancy.Overflow, rs []workload.Request, opts Options,
	baseCost units.Money) (out reschedResult) {
	fs, err := ivs.ScheduleFile(m, vid, rs, ivs.Options{
		Policy: opts.Policy,
		Ledger: tmp,
		Banned: []occupancy.Banned{{Node: of.Node, Interval: of.Interval}},
		Seeds:  opts.Seeds[vid],
		Frozen: opts.Frozen[vid],
	})
	if err != nil {
		return out // unreschedulable candidate; skip (ok=false)
	}
	out.fs = fs
	out.ledger = tmp
	out.newCost = m.FileCost(fs)
	out.overhead = out.newCost - baseCost
	out.ok = true
	return out
}

// computeHeat evaluates the selected metric for rescheduling the residency
// c_i with respect to the overflow (paper Eqs. 8–11). For the per-cost
// metrics, a non-positive overhead means rescheduling improves the overflow
// AND saves money; such candidates are infinitely hot — but only when they
// improve anything at all: a candidate whose improved window is empty
// (X = 0, so ΔS = 0 too) is clamped to heat 0 regardless of overhead, or a
// free-but-useless reschedule would outrank genuine victims and burn
// resolution iterations without shrinking the overflow.
func computeHeat(m *cost.Model, ci schedule.Residency, of occupancy.Overflow,
	overhead units.Money, metric HeatMetric) float64 {

	v := m.Catalog().Video(ci.Video)
	// Improved window: [max(ts_of, ts_ci), min(tf_of, tf_ci + P)] (Eq. 8).
	lo := simtime.Max(of.Interval.Start, ci.Load)
	hi := simtime.Min(of.Interval.End, ci.LastService.Add(v.Playback))
	x := hi.Sub(lo).Seconds()
	if x < 0 {
		x = 0
	}
	var improvement float64
	switch metric {
	case Period, PeriodPerCost:
		improvement = x
	default:
		improvement = ci.SpaceIntegral(simtime.NewInterval(lo, hi), v.Size.Float(), v.Playback)
	}
	if improvement <= 0 {
		return 0
	}
	switch metric {
	case Period, Space:
		return improvement
	default:
		if float64(overhead) <= 0 {
			return math.Inf(1)
		}
		return improvement / float64(overhead)
	}
}
