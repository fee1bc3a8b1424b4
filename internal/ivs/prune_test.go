package ivs

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// rejectiveCase is one rejective re-plan as SORP's victim search runs it:
// a file involved in an overflow, re-planned under a ban on that overflow
// on an overlay view of the integrated ledger without it.
type rejectiveCase struct {
	name   string
	m      *cost.Model
	ledger *occupancy.Ledger
	video  media.VideoID
	reqs   []workload.Request
	opts   Options // Policy, Banned and Seeds or Frozen; Ledger is set per run
}

// phase1 plans every file of reqs on its own, with the given seeds and
// frozen prefixes, and returns the integrated ledger.
func phase1(tb testing.TB, m *cost.Model, reqs map[media.VideoID][]workload.Request,
	seeds map[media.VideoID][]schedule.Residency, frozen map[media.VideoID]*schedule.FileSchedule) (*schedule.Schedule, *occupancy.Ledger) {
	tb.Helper()
	s := schedule.New()
	for vid := media.VideoID(0); int(vid) < m.Catalog().Len(); vid++ {
		if len(reqs[vid]) == 0 && seeds[vid] == nil && frozen[vid] == nil {
			continue
		}
		fs, err := ScheduleFile(m, vid, reqs[vid], Options{Seeds: seeds[vid], Frozen: frozen[vid]})
		if err != nil {
			tb.Fatal(err)
		}
		s.Put(fs)
	}
	return s, occupancy.FromSchedule(m.Book().Topology(), m.Catalog(), s)
}

// rejectiveCases builds every (overflow, involved video) re-plan of
// seeded tight rigs under both caching policies: plain, with standing
// seeds, and with the frozen prefixes of a first epoch under a second
// epoch's requests.
func rejectiveCases(t *testing.T) []rejectiveCase {
	t.Helper()
	var out []rejectiveCase
	for _, seed := range []int64{1, 2, 3, 4} {
		rig, err := testutil.NewPaperRig(6, 8, 40, 3*units.GB, testutil.PerGBHour(5), pricing.PerGB(500), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{
			Alpha: 0.1, Window: 6 * simtime.Hour, RequestsPerUser: 3, Seed: seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		byVideo := reqs.ByVideo()

		seeds := make(map[media.VideoID][]schedule.Residency)
		for i, node := range rig.Topo.Storages()[:2] {
			vid := media.VideoID(i)
			seeds[vid] = []schedule.Residency{{
				Video: vid, Loc: node, Src: rig.Topo.Warehouse(),
				Load: 0, LastService: simtime.Time(simtime.Hour), FedBy: schedule.PrePlacedFeed,
			}}
		}
		cut := simtime.Time(3 * simtime.Hour)
		early, late := make(map[media.VideoID][]workload.Request), make(map[media.VideoID][]workload.Request)
		for vid, rs := range byVideo {
			for _, r := range rs {
				if r.Start < cut {
					early[vid] = append(early[vid], r)
				} else {
					late[vid] = append(late[vid], r)
				}
			}
		}
		first, _ := phase1(t, rig.Model, early, nil, nil)

		for _, v := range []struct {
			kind   string
			reqs   map[media.VideoID][]workload.Request
			seeds  map[media.VideoID][]schedule.Residency
			frozen map[media.VideoID]*schedule.FileSchedule
		}{
			{"plain", byVideo, nil, nil},
			{"seeds", byVideo, seeds, nil},
			{"frozen", late, nil, first.Files},
		} {
			_, ledger := phase1(t, rig.Model, v.reqs, v.seeds, v.frozen)
			for _, of := range ledger.AllOverflows() {
				done := make(map[media.VideoID]bool)
				for _, ref := range ledger.OverflowSet(of.Node, of.Interval) {
					if done[ref.Video] {
						continue
					}
					done[ref.Video] = true
					for _, policy := range []Policy{CacheOnRoute, CacheAtDestination} {
						out = append(out, rejectiveCase{
							name:   fmt.Sprintf("%s/seed=%d/node=%d/%v/video=%d/%v", v.kind, seed, of.Node, of.Interval, ref.Video, policy),
							m:      rig.Model,
							ledger: ledger,
							video:  ref.Video,
							reqs:   v.reqs[ref.Video],
							opts: Options{
								Policy: policy,
								Banned: []occupancy.Banned{{Node: of.Node, Interval: of.Interval}},
								Seeds:  v.seeds[ref.Video],
								Frozen: v.frozen[ref.Video],
							},
						})
					}
				}
			}
		}
	}
	return out
}

// run re-plans the case's file on a fresh overlay view, with reask(view)
// as the dead-copy seam, and returns the plan as JSON.
func (c rejectiveCase) run(t *testing.T, reask func(view *occupancy.Ledger) func(int, schedule.Residency) bool) string {
	t.Helper()
	opts := c.opts
	opts.Ledger = c.ledger.OverlayWithout(c.video)
	opts.reask = reask(opts.Ledger)
	fs, err := ScheduleFile(c.m, c.video, c.reqs, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	blob, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// neverPrune is the reference greedy's seam: every dead copy is priced and
// checked again, as if no copy were ever marked dead.
func neverPrune(*occupancy.Ledger) func(int, schedule.Residency) bool {
	return func(int, schedule.Residency) bool { return true }
}

// TestDeadCopyPruningExact is the exactness property of dead-copy
// pruning. On every rejective re-plan of overflowing rigs — bans, overlay
// views, standing seeds and frozen prefixes — each copy the greedy skips
// as dead must, asked again at skip time, still fail its ban or capacity
// check, and the pruned plan must be byte-identical to the never-prune
// reference's. It also demands some skips, so the property is not met
// vacuously.
func TestDeadCopyPruningExact(t *testing.T) {
	cases := rejectiveCases(t)
	if len(cases) == 0 {
		t.Fatal("no rig overflows")
	}
	skips := 0
	for _, c := range cases {
		playback := c.m.Catalog().Video(c.video).Playback
		recheck := func(view *occupancy.Ledger) func(int, schedule.Residency) bool {
			return func(j int, extended schedule.Residency) bool {
				skips++
				ref := occupancy.Ref{Video: c.video, Index: j}
				if !violatesAny(extended, playback, c.opts.Banned) && view.CanFitExcluding(extended, &ref) {
					t.Errorf("%s: skipped copy %d would pass its checks as %+v", c.name, j, extended)
				}
				return false
			}
		}
		if got, want := c.run(t, recheck), c.run(t, neverPrune); got != want {
			t.Errorf("%s: pruned plan differs from the never-prune reference", c.name)
		}
	}
	t.Logf("%d re-plans, %d dead-copy skips", len(cases), skips)
	if skips == 0 {
		t.Error("no re-plan skipped a dead copy")
	}
}
