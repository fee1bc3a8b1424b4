package sorp

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// exhaustive is the reference memo rule that trusts no memo: every pair is
// re-evaluated on every iteration, as the paper's loop does.
func exhaustive(*pairEntry, *occupancy.Ledger, uint64) bool { return false }

// versionOnly is the reference memo rule that trusts a memo only while the
// file and every node it read are unchanged.
func versionOnly(pe *pairEntry, ledger *occupancy.Ledger, fileVer uint64) bool {
	if pe.fileVer != fileVer {
		return false
	}
	for _, r := range pe.reads {
		if ledger.Version(r.Node) != r.ver {
			return false
		}
	}
	return true
}

// memoCase is one SORP input: a phase-1 integrated schedule, its
// reschedulable requests and the options carrying its seeds or frozen
// prefixes.
type memoCase struct {
	name string
	m    *cost.Model
	s    *schedule.Schedule
	reqs map[media.VideoID][]workload.Request
	opts Options
}

// memoCases builds seeded tight rigs with real overflow pressure: plain,
// with standing seeds, and with the frozen prefixes of a resolved first
// epoch under a second epoch's requests.
func memoCases(t *testing.T) []memoCase {
	t.Helper()
	var out []memoCase
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
		plan := func(reqs map[media.VideoID][]workload.Request, opts Options) *schedule.Schedule {
			s := schedule.New()
			for vid := media.VideoID(0); int(vid) < rig.Catalog.Len(); vid++ {
				if len(reqs[vid]) == 0 && opts.Seeds[vid] == nil && opts.Frozen[vid] == nil {
					continue
				}
				fs, err := ivs.ScheduleFile(rig.Model, vid, reqs[vid], ivs.Options{
					Seeds: opts.Seeds[vid], Frozen: opts.Frozen[vid]})
				if err != nil {
					t.Fatal(err)
				}
				s.Put(fs)
			}
			return s
		}
		name := func(kind string) string { return fmt.Sprintf("%s/seed=%d", kind, seed) }

		out = append(out, memoCase{name("plain"), rig.Model, plan(byVideo, Options{}), byVideo, Options{}})

		seeds := make(map[media.VideoID][]schedule.Residency)
		for i, node := range rig.Topo.Storages()[:2] {
			vid := media.VideoID(i)
			seeds[vid] = []schedule.Residency{{
				Video: vid, Loc: node, Src: rig.Topo.Warehouse(),
				Load: 0, LastService: simtime.Time(simtime.Hour), FedBy: schedule.PrePlacedFeed,
			}}
		}
		opts := Options{Seeds: seeds}
		out = append(out, memoCase{name("seeds"), rig.Model, plan(byVideo, opts), byVideo, opts})

		// Epoch one plans the first half of the window; its resolved files
		// become the frozen prefixes the second half is planned on.
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
		first, err := Resolve(rig.Model, plan(early, Options{}), early, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts = Options{Frozen: first.Schedule.Files}
		out = append(out, memoCase{name("frozen"), rig.Model, plan(late, opts), late, opts})
	}
	return out
}

// resolveJSON runs the resolution loop on the cache and returns the
// resolved schedule and victim sequence as JSON.
func resolveJSON(t *testing.T, c memoCase, workers int, cache *resolveCache) string {
	t.Helper()
	opts := c.opts
	opts.Workers = workers
	res, err := resolve(context.Background(), c.m, c.s, c.reqs, opts, cache)
	if err != nil {
		t.Fatalf("%s Workers=%d: %v", c.name, workers, err)
	}
	blob, err := json.Marshal(struct {
		Schedule *schedule.Schedule
		Victims  []Victim
	}{res.Schedule, res.Victims})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestMemoMatchesExhaustive is the exactness property of the pair memo:
// on seeded tight rigs, plain, seeded and with frozen prefixes, the
// memoized resolution must produce the same schedule and victim bytes as
// one that re-evaluates every pair on every iteration, and as the
// version-only rule, at any worker count. It also demands the memo keep
// some stale entries the version-only rule would discard, so the property
// is not met vacuously.
func TestMemoMatchesExhaustive(t *testing.T) {
	kept := 0
	for _, c := range memoCases(t) {
		if ovs := occupancy.FromSchedule(c.m.Book().Topology(), c.m.Catalog(), c.s).AllOverflows(); len(ovs) == 0 {
			t.Fatalf("%s: fixture has no overflow", c.name)
		}
		withRule := func(rule func(*pairEntry, *occupancy.Ledger, uint64) bool) *resolveCache {
			cache := newResolveCache()
			cache.reuse = rule
			return cache
		}
		want := resolveJSON(t, c, 1, withRule(exhaustive))
		for _, workers := range []int{1, 4} {
			if got := resolveJSON(t, c, workers, withRule(versionOnly)); got != want {
				t.Errorf("%s Workers=%d: version-only memo differs from exhaustive", c.name, workers)
			}
			cache := newResolveCache()
			cache.reuse = func(pe *pairEntry, ledger *occupancy.Ledger, fileVer uint64) bool {
				stale := !versionOnly(pe, ledger, fileVer)
				ok := cache.reusable(pe, ledger, fileVer)
				if ok && stale {
					kept++
				}
				return ok
			}
			if got := resolveJSON(t, c, workers, cache); got != want {
				t.Errorf("%s Workers=%d: slack memo differs from exhaustive", c.name, workers)
			}
		}
	}
	if kept == 0 {
		t.Error("the slack rule kept no stale memo on any rig")
	}
}

// TestMemoChargesSlack pins the roll-forward charge: commits that each fit
// inside an entry's slack but together do not must invalidate it, whether
// they are checked one at a time or all at once.
func TestMemoChargesSlack(t *testing.T) {
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB)
	b.Connect(vw, is1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(1, units.GBf(1), 100*simtime.Second, units.Mbps(100))
	if err != nil {
		t.Fatal(err)
	}
	// Each Add of a copy that occupies space moves the node's version by
	// one: the ledger stands in for the committed ledger at version v.
	ledgerAt := func(v int) *occupancy.Ledger {
		l := occupancy.NewLedger(topo, cat)
		for i := 0; i < v; i++ {
			l.Add(occupancy.Ref{Index: i}, schedule.Residency{Loc: is1, Load: 0, LastService: 50})
		}
		return l
	}
	hull := simtime.NewInterval(0, 1000)
	inside := copySpan{peak: 6, sup: simtime.NewInterval(500, 700)}
	outside := copySpan{peak: 1e9, sup: simtime.NewInterval(2000, 3000)}
	newCache := func() *resolveCache {
		c := newResolveCache()
		c.commits[is1] = []nodeCommit{
			{from: 0, to: 1, copies: []copySpan{inside, outside}},
			{from: 1, to: 2, copies: []copySpan{inside}},
		}
		return c
	}
	entry := func() *pairEntry {
		return &pairEntry{reads: []memoRead{{Read: occupancy.Read{Node: is1, Hull: hull, Slack: 10}}}}
	}

	c, pe := newCache(), entry()
	if !c.reusable(pe, ledgerAt(1), 0) {
		t.Fatal("one commit within the slack invalidated the memo")
	}
	if got, want := pe.reads[0].Slack, 10-(inside.peak+residueMargin); got != want || pe.reads[0].ver != 1 {
		t.Fatalf("after roll-forward: slack %g ver %d, want %g ver 1", got, pe.reads[0].ver, want)
	}
	if c.reusable(pe, ledgerAt(2), 0) {
		t.Error("second commit overran the charged slack but the memo was kept")
	}
	if c.reusable(entry(), ledgerAt(2), 0) {
		t.Error("two commits checked at once overran the slack but the memo was kept")
	}

	whole := entry()
	whole.reads[0].Whole = true
	if c.reusable(whole, ledgerAt(1), 0) {
		t.Error("a whole-profile read survived a version change")
	}
	if !c.reusable(whole, ledgerAt(0), 0) {
		t.Error("an unchanged whole-profile read was discarded")
	}
	if c.reusable(entry(), ledgerAt(0), 1) {
		t.Error("a memo of a rewritten file was kept")
	}
}

// TestLogCommitDiffsCopies pins the commit log: only copies that differ
// between the old and new file are logged, at their node, and a node whose
// version moved with no differing copy still gets a record.
func TestLogCommitDiffsCopies(t *testing.T) {
	m, topo, _ := tightRig(t)
	is1 := topo.Storages()[0]
	h := simtime.Time(simtime.Hour)
	kept := schedule.Residency{Video: 0, Loc: is1, Load: 0, LastService: h}
	dropped := schedule.Residency{Video: 0, Loc: is1, Load: 2 * h, LastService: 3 * h}
	added := schedule.Residency{Video: 0, Loc: is1, Load: 4 * h, LastService: 4*h + 600}
	oldFile := &schedule.FileSchedule{Video: 0, Residencies: []schedule.Residency{kept, dropped}}
	newFile := &schedule.FileSchedule{Video: 0, Residencies: []schedule.Residency{kept, added}}

	build := func(fs *schedule.FileSchedule) *occupancy.Ledger {
		s := schedule.New()
		s.Put(fs)
		return occupancy.FromSchedule(topo, m.Catalog(), s)
	}
	before := build(oldFile)
	after := before.Clone()
	after.RemoveVideo(0)
	for i, r := range newFile.Residencies {
		after.Add(occupancy.Ref{Video: 0, Index: i}, r)
	}

	c := newResolveCache()
	c.logCommit(m, before, after, oldFile, newFile)
	log := c.commits[is1]
	if len(log) != 1 || log[0].from != before.Version(is1) || log[0].to != after.Version(is1) {
		t.Fatalf("log %+v, want one record from %d to %d", log, before.Version(is1), after.Version(is1))
	}
	v := m.Catalog().Video(0)
	for _, r := range []schedule.Residency{dropped, added} {
		want := copySpan{peak: r.Gamma(v.Playback) * v.Size.Float(), sup: r.Support(v.Playback)}
		found := false
		for _, cs := range log[0].copies {
			found = found || cs == want
		}
		if !found {
			t.Errorf("log %+v misses %+v", log[0].copies, want)
		}
	}
	if len(log[0].copies) != 2 {
		t.Errorf("log %+v, want exactly the dropped and the added copy", log[0].copies)
	}

	c = newResolveCache()
	c.logCommit(m, before, after, oldFile, oldFile)
	if log := c.commits[is1]; len(log) != 1 || len(log[0].copies) != 0 {
		t.Errorf("re-adding an unchanged file logged %+v, want one record with no copies", log)
	}
}
