package occupancy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// sweepRef recomputes one CanFitExcluding sweep by brute force: the same
// evaluated times the indexed sweep visits (the support's start, every
// profile breakpoint strictly inside it, the support's end, stopping at
// the first total above the threshold), with every total re-summed from
// Eq. 6 per copy. It returns the answer and the least |total − threshold|.
func sweepRef(copies []schedule.Residency, cand schedule.Residency, excluded *schedule.Residency,
	size float64, playback simtime.Duration, capacity float64) (bool, float64) {
	sup := cand.Support(playback)
	all := append(append([]schedule.Residency(nil), copies...), cand)
	if excluded != nil {
		all = append(all, *excluded)
	}
	times := []simtime.Time{sup.Start, sup.End}
	for _, c := range all {
		if _, n := residencyEvents(c, size, playback); n == 0 {
			continue // no records, no breakpoints
		}
		for _, t := range []simtime.Time{c.Load, c.LastService, c.LastService.Add(playback)} {
			if sup.Start < t && t < sup.End {
				times = append(times, t)
			}
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	slack := math.Inf(1)
	for i, t := range times {
		if i > 0 && t == times[i-1] {
			continue
		}
		total := cand.SpaceAt(t, size, playback)
		for _, c := range copies {
			total += c.SpaceAt(t, size, playback)
		}
		if excluded != nil {
			total -= excluded.SpaceAt(t, size, playback)
		}
		slack = math.Min(slack, math.Abs(total-(capacity+eps)))
		if total > capacity+eps {
			return false, slack
		}
	}
	return true, slack
}

// TestReadsMatchBruteForce pins the query trace the SORP memo relies on:
// on seeded random ledgers and their OverlayWithout views, after a random
// mix of the greedy's adds and CanFitExcluding queries, every queried
// node's recorded hull must span exactly the queried supports and its
// slack must equal a brute-force recomputation at the same evaluated
// times.
func TestReadsMatchBruteForce(t *testing.T) {
	defer SetNaiveForTesting(false)
	answers := make(map[bool]int)
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, base, topo, cat := randomLedgers(t, seed, 6, 120)
			rng := rand.New(rand.NewSource(seed ^ 0x51ac))
			size, playback := cat.Video(0).Size.Float(), cat.Video(0).Playback
			for vid := media.VideoID(0); vid < 6; vid++ {
				view := base.OverlayWithout(vid)
				view.TrackQueries()
				type placed struct {
					ref Ref
					c   schedule.Residency
				}
				var own []placed
				type want struct {
					hull  simtime.Interval
					slack float64
				}
				wants := make(map[topology.NodeID]*want)
				for k := 0; k < 120; k++ {
					node := topology.NodeID(1 + rng.Intn(topo.NumNodes()-1))
					load := simtime.Time(rng.Intn(600)) * simtime.Time(simtime.Second)
					cand := res(vid, node, load, load.Add(simtime.Duration(rng.Intn(300))*simtime.Second))
					if rng.Intn(4) == 0 {
						// The greedy's own placements join the view's delta.
						r := Ref{Video: vid, Index: 100 + k}
						view.Add(r, cand)
						own = append(own, placed{r, cand})
						continue
					}
					var copies []schedule.Residency
					for _, e := range base.nodes[node].entries {
						if e.ref.Video != vid {
							copies = append(copies, e.res)
						}
					}
					var exclude *Ref
					var excluded *schedule.Residency
					for i := range own {
						if own[i].c.Loc != node {
							continue
						}
						copies = append(copies, own[i].c)
						if exclude == nil && rng.Intn(2) == 0 {
							exclude, excluded = &own[i].ref, &own[i].c
						}
					}
					fits, slack := sweepRef(copies, cand, excluded, size, playback, base.caps[node])
					if got := view.CanFitExcluding(cand, exclude); got != fits {
						t.Fatalf("vid %d CanFitExcluding(%v): %v, brute force %v", vid, cand, got, fits)
					}
					answers[fits]++
					sup := cand.Support(playback)
					if w := wants[node]; w == nil {
						wants[node] = &want{hull: sup, slack: slack}
					} else {
						w.hull.Start = simtime.Min(w.hull.Start, sup.Start)
						w.hull.End = simtime.Max(w.hull.End, sup.End)
						w.slack = math.Min(w.slack, slack)
					}
				}
				reads := view.Reads()
				if len(reads) != len(wants) {
					t.Fatalf("vid %d: %d nodes read, want %d", vid, len(reads), len(wants))
				}
				for _, r := range reads {
					w := wants[r.Node]
					switch {
					case w == nil:
						t.Fatalf("vid %d: node %d read but never queried", vid, r.Node)
					case r.Whole:
						t.Fatalf("vid %d node %d: CanFit-only reads marked whole", vid, r.Node)
					case r.Hull != w.hull:
						t.Fatalf("vid %d node %d: hull %v, want %v", vid, r.Node, r.Hull, w.hull)
					case math.Abs(r.Slack-w.slack) > equivTol*(1+w.slack):
						t.Fatalf("vid %d node %d: slack %g, brute force %g", vid, r.Node, r.Slack, w.slack)
					}
				}
			}
		})
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("fixture bug: answers %v, want both outcomes", answers)
	}
}

// TestReadsWholeProfile pins the fallback: naive-mode ledgers and every
// query other than an indexed CanFit record a whole-profile read, and a
// warehouse check records nothing.
func TestReadsWholeProfile(t *testing.T) {
	defer SetNaiveForTesting(false)
	topo, cat := fixture(t)
	is1, is2 := topology.NodeID(1), topology.NodeID(2)
	c := res(0, is1, 0, 50)
	is1Only := func(l *Ledger) {
		t.Helper()
		rs := l.Reads()
		if len(rs) != 1 || rs[0].Node != is1 || !rs[0].Whole {
			t.Fatalf("reads %+v, want one whole-profile read of node %d", rs, is1)
		}
	}

	SetNaiveForTesting(true)
	naive := NewLedger(topo, cat)
	SetNaiveForTesting(false)
	naive.Add(Ref{Video: 1}, res(1, is1, 0, 100))
	naive.TrackQueries()
	naive.CanFit(c)
	is1Only(naive)
	view := naive.OverlayWithout(1)
	view.TrackQueries()
	view.CanFit(c)
	is1Only(view)

	for name, query := range map[string]func(l *Ledger){
		"SpaceAt":     func(l *Ledger) { l.SpaceAt(is1, 10) },
		"Peak":        func(l *Ledger) { l.Peak(is1) },
		"Overflows":   func(l *Ledger) { l.Overflows(is1) },
		"OverflowSet": func(l *Ledger) { l.OverflowSet(is1, simtime.NewInterval(0, 10)) },
		"CanFitThenSpaceAt": func(l *Ledger) {
			l.CanFit(c)
			l.SpaceAt(is1, 10)
		},
	} {
		t.Run(name, func(t *testing.T) {
			l := NewLedger(topo, cat)
			l.Add(Ref{Video: 1}, res(1, is1, 0, 100))
			l.TrackQueries()
			query(l)
			is1Only(l)
		})
	}

	t.Run("overlay SpaceAt", func(t *testing.T) {
		l := NewLedger(topo, cat)
		l.Add(Ref{Video: 1}, res(1, is1, 0, 100))
		view := l.OverlayWithout(0)
		view.TrackQueries()
		view.SpaceAt(is1, 10)
		is1Only(view)
	})

	t.Run("warehouse and indexed CanFit", func(t *testing.T) {
		l := NewLedger(topo, cat)
		l.TrackQueries()
		l.CanFit(res(0, topo.Warehouse(), 0, 50))
		if rs := l.Reads(); len(rs) != 0 {
			t.Fatalf("warehouse check recorded %+v", rs)
		}
		l.CanFit(res(0, is2, 10, 50))
		rs := l.Reads()
		if len(rs) != 1 || rs[0].Node != is2 || rs[0].Whole || rs[0].Hull != simtime.NewInterval(10, 50+simtime.Time(p)) {
			t.Fatalf("reads %+v, want one CanFit read of node %d", rs, is2)
		}
	})
}
