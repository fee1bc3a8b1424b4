package ivs

import (
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// chainRig builds the worst case for tentative-cache bookkeeping: a long
// chain VW - IS1 - ... - ISn with users at the far end, so every direct
// stream traverses every storage and opens a tentative copy at each. The
// residency list then grows by O(chain) per request, and a per-candidate
// linear duplicate scan makes ScheduleFile quadratic in the request count.
func chainRig(b *testing.B, storages int) (*cost.Model, workload.Set) {
	b.Helper()
	topo := topology.Chain(topology.GenConfig{
		Storages:        storages,
		UsersPerStorage: 1,
		Capacity:        1000 * units.GB,
	})
	cat, err := media.Uniform(1, 2.5e9, 2*simtime.Hour+15*simtime.Minute, units.Mbps(2.5))
	if err != nil {
		b.Fatal(err)
	}
	book := pricing.Uniform(topo, testutil.PerGBHour(1), testutil.CentsPerMbit(0.1))
	model := cost.NewModel(book, routing.NewTable(book), cat)
	return model, nil
}

// BenchmarkScheduleFileChain is the asymptotic guard for the incremental
// duplicate-suppression index: doubling the request count should roughly
// double ns/op (linear greedy bookkeeping), not quadruple it (the old
// quadratic duplicate scan). Compare the per-request cost across sizes.
func BenchmarkScheduleFileChain(b *testing.B) {
	for _, n := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("requests=%d", n), func(b *testing.B) {
			model, _ := chainRig(b, 12)
			topo := model.Book().Topology()
			last := topo.NumUsers() - 1 // farthest user: longest route
			reqs := make([]workload.Request, n)
			for i := range reqs {
				reqs[i] = workload.Request{
					User:  topology.UserID(last),
					Video: 0,
					Start: simtime.Time(i) * simtime.Time(simtime.Minute),
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ScheduleFile(model, 0, reqs, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleFileRejective isolates the rejective greedy, the layer
// under SORP's victim search: one banned re-plan of one file on an overlay
// view of a loaded, overflowing ledger. The rig mirrors the batch-solve
// metro (15 storages of 5 GB, 10 users each, 100 titles, 1,500 Zipf
// requests over 12 hours); the re-planned pair is the first overflow and
// its involved video with the most requests.
func BenchmarkScheduleFileRejective(b *testing.B) {
	rig, err := testutil.NewPaperRig(15, 10, 100, 5*units.GB, testutil.PerGBHour(5), pricing.PerGB(500), 1997)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{
		Alpha: 0.271, Window: 12 * simtime.Hour, RequestsPerUser: 10, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	byVideo := reqs.ByVideo()
	_, ledger := phase1(b, rig.Model, byVideo, nil, nil)
	ovs := ledger.AllOverflows()
	if len(ovs) == 0 {
		b.Fatal("the rig does not overflow")
	}
	of := ovs[0]
	vid := ledger.OverflowSet(of.Node, of.Interval)[0].Video
	for _, ref := range ledger.OverflowSet(of.Node, of.Interval) {
		if n := len(byVideo[ref.Video]); n > len(byVideo[vid]) || n == len(byVideo[vid]) && ref.Video < vid {
			vid = ref.Video
		}
	}
	opts := Options{Banned: []occupancy.Banned{{Node: of.Node, Interval: of.Interval}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Ledger = ledger.OverlayWithout(vid)
		if _, err := ScheduleFile(rig.Model, vid, byVideo[vid], opts); err != nil {
			b.Fatal(err)
		}
	}
}
