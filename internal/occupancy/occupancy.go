// Package occupancy tracks disk usage at every intermediate storage over
// time and detects storage overflows (paper §4.1). The space requirement of
// one residency is the piecewise-linear profile f_c of Eq. 6; the total at
// a storage is the sum over resident copies, also piecewise linear with
// breakpoints at every residency's Load, LastService and LastService+P.
// Overflow detection is therefore exact: the maximum between breakpoints is
// attained at a breakpoint, and capacity crossings are solved linearly.
//
// # Event index
//
// The scheduler's hot path queries the ledger far more often than it
// mutates it: the rejective greedy runs one CanFit per candidate supply
// point per request, and SORP re-detects overflows every iteration. A
// naive evaluation answers each query by re-summing Eq. 6 over every
// entry at every breakpoint — O(E²) per query. The ledger therefore
// maintains, per node, a sweep-line event index: a time-sorted list of
// breakpoint records, up to three per residency,
//
//	{Load,          jump: +γ·size}          copy reserves its peak space
//	{LastService,   dslope: -γ·size/P}      linear decay begins
//	{LastService+P, dslope: +γ·size/P}      decay reaches zero
//
// so the node's total profile is recovered by a single chronological sweep
// accumulating jumps and integrating the running slope. SpaceAt, Peak,
// Overflows and CanFit are all one O(E) sweep. The index is updated
// incrementally by Add/Update/Remove — each mutation inserts or deletes
// that residency's records, recomputed bit-identically from the entry, so
// deletion removes records exactly instead of subtracting floats (no
// cancellation residue accumulates across mutations) — and is preserved
// across the copy-on-write Clone.
//
// All per-node state lives in a dense slice indexed by NodeID (topology
// IDs are dense builder-assigned indices), so the per-query bookkeeping is
// array indexing rather than map hashing. Overflow results are memoized
// per node under a mutation version counter, so AllOverflows between SORP
// iterations re-walks only the nodes whose profile actually changed.
package occupancy

import (
	"fmt"
	"math"
	"sort"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// eps absorbs float jitter when comparing byte quantities: occupancy sums
// are products of ~1e9-byte sizes and unit-free coefficients, so anything
// below a milli-byte is noise.
const eps = 1e-3

// naiveMode disables the event index for ledgers created while it is set:
// every query falls back to the original per-entry re-scan. The slow path
// is kept as the brute-force reference the property and byte-identity
// tests compare the index against.
var naiveMode bool

// SetNaiveForTesting switches subsequently created ledgers to the
// reference (index-free) query path. Testing only; not safe to flip while
// ledgers are in use on other goroutines.
func SetNaiveForTesting(v bool) { naiveMode = v }

// Ref identifies a residency inside a global schedule.
type Ref struct {
	Video media.VideoID
	Index int // index into the FileSchedule's Residencies
}

// Overflow is one storage overflow situation OF_{Δt, ISj}: at storage Node,
// total occupancy exceeds capacity throughout Interval, peaking at Peak
// bytes (Excess bytes above capacity).
type Overflow struct {
	Node     topology.NodeID
	Interval simtime.Interval
	Peak     float64
	Excess   float64
}

func (o Overflow) String() string {
	return fmt.Sprintf("overflow@%d %s peak=%.0fB excess=%.0fB", o.Node, o.Interval, o.Peak, o.Excess)
}

// entry is one registered residency plus its cached profile parameters:
// size and playback from the catalog, and the Eq. 6 peak value v = γ·size
// and decay slope k = v/P, precomputed once at registration so the hot
// paths build the entry's breakpoint records without re-evaluating γ.
type entry struct {
	ref      Ref
	res      schedule.Residency
	size     float64
	playback simtime.Duration
	v        float64 // γ·size; 0 for a copy that occupies nothing
	k        float64 // v / playback, the decay slope (bytes/s)
}

// newEntry builds the registered form of a residency; v and k are
// computed exactly as residencyEvents computes them for candidates, so
// records built from either source are bit-identical.
func newEntry(ref Ref, c schedule.Residency, size float64, playback simtime.Duration) entry {
	e := entry{ref: ref, res: c, size: size, playback: playback}
	if playback > 0 {
		if v := c.Gamma(playback) * size; v != 0 {
			e.v = v
			e.k = v / playback.Seconds()
		}
	}
	return e
}

// event is one sweep-line breakpoint record: at time t the node's total
// profile steps up by jump bytes and its slope changes by dslope bytes/s.
type event struct {
	t      simtime.Time
	jump   float64
	dslope float64
}

// residencyEvents returns a candidate residency's breakpoint records. A
// copy that occupies nothing (zero span, or no playback) contributes none.
func residencyEvents(c schedule.Residency, size float64, playback simtime.Duration) (evs [3]event, n int) {
	if playback <= 0 {
		return
	}
	v := c.Gamma(playback) * size
	if v == 0 {
		return
	}
	k := v / playback.Seconds()
	evs[0] = event{t: c.Load, jump: v}
	evs[1] = event{t: c.LastService, dslope: -k}
	evs[2] = event{t: c.LastService.Add(playback), dslope: k}
	return evs, 3
}

// entryEvents is residencyEvents for a registered entry, reading the
// precomputed v and k instead of re-evaluating γ.
func entryEvents(e *entry) (evs [3]event, n int) {
	if e.v == 0 {
		return
	}
	evs[0] = event{t: e.res.Load, jump: e.v}
	evs[1] = event{t: e.res.LastService, dslope: -e.k}
	evs[2] = event{t: e.res.LastService.Add(e.playback), dslope: e.k}
	return evs, 3
}

// insertEvent places e after every record at the same time. The caller must
// own the slice (see Ledger.own).
func insertEvent(evs []event, e event) []event {
	i := sort.Search(len(evs), func(k int) bool { return evs[k].t > e.t })
	evs = append(evs, event{})
	copy(evs[i+1:], evs[i:])
	evs[i] = e
	return evs
}

// removeEvent deletes the record equal to e. The records were computed by
// entryEvents from the stored entry, so recomputing them yields the exact
// same bits and the match is exact.
func removeEvent(evs []event, e event) []event {
	i := sort.Search(len(evs), func(k int) bool { return evs[k].t >= e.t })
	for ; i < len(evs) && evs[i].t == e.t; i++ {
		if evs[i].jump == e.jump && evs[i].dslope == e.dslope {
			return append(evs[:i], evs[i+1:]...)
		}
	}
	panic(fmt.Sprintf("occupancy: event index out of sync: no record %+v", e))
}

// nodeState is one node's slot in the ledger's dense per-node array.
type nodeState struct {
	// entries holds the residencies registered at the node.
	entries []entry
	// events is the sweep-line index over the entries' profile breakpoints,
	// maintained incrementally and shared with clones under the same
	// copy-on-write protocol as entries.
	events []event
	// ver counts profile mutations. Clones inherit the counter, so along a
	// Clone-and-commit lineage an unchanged counter proves the node's
	// profile is unchanged (counters only ever increase).
	ver uint64
	// shared marks slices whose backing arrays are shared with another
	// ledger (the other side of a Clone). A shared slice is never mutated
	// in place: own() copies it first. This makes Clone O(nodes) instead
	// of O(residencies).
	shared bool
	// ovValid/ovVer/ovs memoize the node's Overflows walk at a version.
	ovValid bool
	ovVer   uint64
	ovs     []Overflow
}

// sweepPt is one stop of a node's prefix sweep: the total profile's
// post-jump value and slope at breakpoint t. Between pts[i].t and
// pts[i+1].t the profile is the line val + slope·(t − pts[i].t).
type sweepPt struct {
	t     simtime.Time
	val   float64
	slope float64
}

// nodeSnap caches the prefix sweep of one node's event index so point
// queries need a binary search plus the breakpoints actually inside their
// window, instead of integrating from the beginning of time. Rebuilt
// lazily (O(E)) on first query after a mutation; the greedy's
// query-heavy/mutation-light access pattern amortizes that to O(1) per
// query. Never shared across clones, so rebuilds may reuse the backing
// array in place.
type nodeSnap struct {
	builtAt uint64 // ver+1 at build time; 0 = never built
	pts     []sweepPt
}

// Ledger is the scheduler's view of disk usage at every storage. It is not
// safe for concurrent mutation.
type Ledger struct {
	topo    *topology.Topology
	catalog *media.Catalog
	// nodes holds the per-node state, indexed densely by NodeID.
	nodes []nodeState
	// snap holds the per-node prefix sweeps, lazily (re)built per version.
	// Unlike the nodes array it is never inherited by Clone, so the slices
	// inside are exclusively owned and rebuilt in place.
	snap []nodeSnap
	// queried, when non-nil, records per node how its occupancy state
	// influenced query answers (see TrackQueries).
	queried []nodeRead
	// base, when non-nil, marks this ledger as an overlay view returned by
	// OverlayWithout: the nodes array holds only the view's own delta
	// (masked-out videos' negated records plus local additions) and queries
	// merge that delta with the base's — never copied — state.
	base *Ledger
	// removed lists the videos an overlay view has masked out of its base.
	removed map[media.VideoID]bool
	// caps caches every node's capacity in float bytes and isWh its
	// warehouse-kind flag, so the capacity check — the greedy's hottest
	// query — skips the topology lookups. Shared read-only across clones
	// and views.
	caps []float64
	isWh []bool
	// vidNodes over-approximates, per video, the nodes that may hold one of
	// its copies: Add appends, nothing removes. maskVideo visits only these
	// nodes instead of scanning the whole ledger; a stale node costs one
	// empty scan, never a wrong answer. Clones deep-copy the map (it is
	// tiny: one short node list per video), overlay views never maintain it
	// (they mask through the base's).
	vidNodes map[media.VideoID][]topology.NodeID
	// naive pins the reference query path (see SetNaiveForTesting).
	naive bool
}

// NewLedger returns an empty ledger for the topology.
func NewLedger(topo *topology.Topology, catalog *media.Catalog) *Ledger {
	l := &Ledger{
		topo:    topo,
		catalog: catalog,
		nodes:   make([]nodeState, topo.NumNodes()),
		caps:    make([]float64, topo.NumNodes()),
		isWh:    make([]bool, topo.NumNodes()),
		naive:   naiveMode,
	}
	for n := range l.caps {
		node := topo.Node(topology.NodeID(n))
		l.caps[n] = node.Capacity.Float()
		l.isWh[n] = node.Kind == topology.KindWarehouse
	}
	l.vidNodes = make(map[media.VideoID][]topology.NodeID)
	return l
}

// noteVideoNode records that the video may hold a copy at the node.
func (l *Ledger) noteVideoNode(vid media.VideoID, node topology.NodeID) {
	if l.vidNodes == nil {
		return // overlay view: the base's index covers masking
	}
	ns := l.vidNodes[vid]
	for _, n := range ns {
		if n == node {
			return
		}
	}
	l.vidNodes[vid] = append(ns, node)
}

// FromSchedule builds a ledger holding every residency of the schedule,
// the integration step of paper §3.3.
func FromSchedule(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule) *Ledger {
	l := NewLedger(topo, catalog)
	for _, vid := range s.VideoIDs() {
		fs := s.Files[vid]
		for i, c := range fs.Residencies {
			l.Add(Ref{Video: vid, Index: i}, c)
		}
	}
	return l
}

// own makes the node's slices safe to mutate: if their backing arrays are
// shared with a clone, they are copied first.
func (l *Ledger) own(node topology.NodeID) {
	st := &l.nodes[node]
	if !st.shared {
		return
	}
	cp := make([]entry, len(st.entries))
	copy(cp, st.entries)
	st.entries = cp
	ep := make([]event, len(st.events))
	copy(ep, st.events)
	st.events = ep
	st.shared = false
}

// dirty records a mutation of the node: the version counter advances and
// the memoized overflow walk is dropped.
func (l *Ledger) dirty(node topology.NodeID) {
	st := &l.nodes[node]
	st.ver++
	st.ovValid = false
	st.ovs = nil
}

// Version returns the node's mutation counter. Along a Clone lineage an
// equal counter proves the node's profile is unchanged; SORP uses this
// to re-evaluate only candidate reschedules whose inputs moved.
func (l *Ledger) Version(node topology.NodeID) uint64 { return l.nodes[node].ver }

// Read is one node's footprint in a tracked query trace (see
// TrackQueries).
//
// An indexed CanFit answer depends on the node's profile only through the
// sign of total − (capacity+eps) at the times its sweep evaluates, all of
// which lie inside the candidate's support. So a profile change that moves
// no total inside Hull by Slack or more cannot flip any recorded answer.
// Whole marks a node read some other way, whose answers may depend on
// any part of its profile.
type Read struct {
	Node topology.NodeID
	// Whole is set when the node answered any query other than an indexed
	// CanFit/CanFitExcluding, or any query of a naive-mode ledger; Hull
	// and Slack then bound nothing.
	Whole bool
	// Hull spans the supports of every CanFit sweep at the node.
	Hull simtime.Interval
	// Slack is the least |total − (capacity+eps)| over every time those
	// sweeps evaluated.
	Slack float64
}

// nodeRead is one node's slot in a query trace.
type nodeRead struct {
	read, whole bool
	hull        simtime.Interval
	slack       float64
}

// TrackQueries starts recording how each node's occupancy state influences
// subsequent query answers (see Read). The trace is not inherited by
// clones.
func (l *Ledger) TrackQueries() { l.queried = make([]nodeRead, l.topo.NumNodes()) }

// Reads returns the recorded trace in ascending node order.
func (l *Ledger) Reads() []Read {
	var out []Read
	for n, r := range l.queried {
		if r.read {
			out = append(out, Read{Node: topology.NodeID(n), Whole: r.whole, Hull: r.hull, Slack: r.slack})
		}
	}
	return out
}

// touch records a whole-profile read of the node.
func (l *Ledger) touch(node topology.NodeID) {
	if l.queried != nil {
		l.queried[node].read = true
		l.queried[node].whole = true
	}
}

// noteFit records an indexed CanFit sweep over sup whose evaluated totals
// came no closer than slack to the fit threshold.
func (l *Ledger) noteFit(node topology.NodeID, sup simtime.Interval, slack float64) {
	r := &l.queried[node]
	if !r.read {
		*r = nodeRead{read: true, hull: sup, slack: slack}
		return
	}
	r.hull.Start = simtime.Min(r.hull.Start, sup.Start)
	r.hull.End = simtime.Max(r.hull.End, sup.End)
	if slack < r.slack {
		r.slack = slack
	}
}

// snapshot returns the node's prefix sweep, rebuilding it if the node has
// mutated since the last build.
func (l *Ledger) snapshot(node topology.NodeID) []sweepPt {
	if l.base != nil {
		panic("occupancy: snapshot of an overlay view")
	}
	if l.snap == nil {
		l.snap = make([]nodeSnap, len(l.nodes))
	}
	sn := &l.snap[node]
	ver := l.nodes[node].ver
	if sn.builtAt == ver+1 {
		return sn.pts
	}
	evs := l.nodes[node].events
	pts := sn.pts[:0]
	val, slope := 0.0, 0.0
	var last simtime.Time
	started := false
	for i := 0; i < len(evs); {
		t := evs[i].t
		if started {
			val += slope * t.Sub(last).Seconds()
		}
		last, started = t, true
		for ; i < len(evs) && evs[i].t == t; i++ {
			val += evs[i].jump
			slope += evs[i].dslope
		}
		pts = append(pts, sweepPt{t: t, val: val, slope: slope})
	}
	sn.pts = pts
	sn.builtAt = ver + 1

	return pts
}

// addEntryEvents inserts the entry's breakpoint records, reporting whether
// the profile changed. A zero-value entry (γ=0 tentative) contributes no
// records and leaves the profile — and hence the node's version — intact;
// the greedy opens such tentatives on every request, so not invalidating
// the node's snapshot and caches for them matters. The caller must already
// own the node's slices.
func (l *Ledger) addEntryEvents(node topology.NodeID, e *entry) bool {
	evs, n := entryEvents(e)
	st := &l.nodes[node]
	for i := 0; i < n; i++ {
		st.events = insertEvent(st.events, evs[i])
	}
	return n > 0
}

// removeEntryEvents deletes the entry's breakpoint records, recomputed
// bit-identically from the stored entry. Reports whether the profile
// changed.
func (l *Ledger) removeEntryEvents(node topology.NodeID, e *entry) bool {
	evs, n := entryEvents(e)
	st := &l.nodes[node]
	for i := 0; i < n; i++ {
		st.events = removeEvent(st.events, evs[i])
	}
	return n > 0
}

// Add registers a residency under the given reference.
func (l *Ledger) Add(ref Ref, c schedule.Residency) {
	v := l.catalog.Video(c.Video)
	l.own(c.Loc)
	e := newEntry(ref, c, v.Size.Float(), v.Playback)
	st := &l.nodes[c.Loc]
	st.entries = append(st.entries, e)
	l.noteVideoNode(c.Video, c.Loc)
	if l.addEntryEvents(c.Loc, &e) {
		l.dirty(c.Loc)
	}
}

// Update replaces the residency registered under ref (e.g. after extending
// its LastService). It reports whether the ref was found. The common case
// — extending a copy in place — is found at the new residency's own node
// without scanning the rest of the ledger.
func (l *Ledger) Update(ref Ref, c schedule.Residency) bool {
	if l.updateAt(c.Loc, ref, c) {
		return true
	}
	for n := range l.nodes {
		node := topology.NodeID(n)
		if node == c.Loc {
			continue
		}
		if l.updateAt(node, ref, c) {
			return true
		}
	}
	return false
}

func (l *Ledger) updateAt(node topology.NodeID, ref Ref, c schedule.Residency) bool {
	es := l.nodes[node].entries
	for i := range es {
		if es[i].ref != ref {
			continue
		}
		l.own(node)
		st := &l.nodes[node]
		es = st.entries
		changed := l.removeEntryEvents(node, &es[i])
		if node == c.Loc {
			v := l.catalog.Video(c.Video)
			es[i] = newEntry(ref, c, v.Size.Float(), v.Playback)
			if l.addEntryEvents(node, &es[i]) || changed {
				l.dirty(node)
			}
			return true
		}
		if changed {
			l.dirty(node)
		}
		// Relocated: drop here and re-add at the new node.
		st.entries = append(es[:i], es[i+1:]...)
		l.Add(ref, c)
		return true
	}
	return false
}

// Remove drops the residency registered under ref, reporting whether it was
// found.
func (l *Ledger) Remove(ref Ref) bool {
	for n := range l.nodes {
		node := topology.NodeID(n)
		es := l.nodes[n].entries
		for i := range es {
			if es[i].ref == ref {
				l.own(node)
				st := &l.nodes[n]
				es = st.entries
				if l.removeEntryEvents(node, &es[i]) {
					l.dirty(node)
				}
				st.entries = append(es[:i], es[i+1:]...)
				return true
			}
		}
	}
	return false
}

// Clone returns an independent copy of the ledger. The rejective greedy
// evaluates candidate reschedules against clones (or the cheaper overlay
// views, see OverlayWithout) so rejected candidates leave the real ledger
// untouched.
//
// The copy is lazy: the clone shares the per-node entry and event slices
// with the source and both sides copy a slice only before first mutating
// it, so Clone itself is O(nodes). Because Clone marks the source's slices
// shared too, it counts as a mutation of the source: concurrent Clone
// calls on the same ledger must be serialized by the caller.
//
// Version counters and memoized overflow walks carry over; a query trace
// does not.
func (l *Ledger) Clone() *Ledger {
	if l.base != nil {
		panic("occupancy: Clone of an overlay view; Flatten it first")
	}
	out := &Ledger{
		topo:     l.topo,
		catalog:  l.catalog,
		nodes:    make([]nodeState, len(l.nodes)),
		caps:     l.caps,
		isWh:     l.isWh,
		vidNodes: make(map[media.VideoID][]topology.NodeID, len(l.vidNodes)),
		naive:    l.naive,
	}
	for vid, ns := range l.vidNodes {
		out.vidNodes[vid] = append([]topology.NodeID(nil), ns...)
	}
	copy(out.nodes, l.nodes)
	for n := range l.nodes {
		l.nodes[n].shared = true
		out.nodes[n].shared = true
	}
	return out
}

// OverlayWithout returns a lightweight view of the ledger for evaluating a
// candidate reschedule of one video. The view behaves like
// Clone-then-RemoveVideo(vid), but the base's entry and event slices are
// neither copied nor modified: the view keeps only its own delta — the
// masked video's negated breakpoint records plus whatever the greedy adds
// — and CanFit merges the base's prefix snapshot with that delta. A
// candidate evaluation therefore costs the size of the candidate's own
// footprint, not the size of the ledger: nothing is copied up front, the
// base's snapshots stay valid and are shared by every live view, and only
// the winning view is materialized back into a real ledger (Flatten).
//
// The view supports the rejective greedy's working set — Add, Update,
// RemoveVideo, CanFit/CanFitExcluding, SpaceAt, TrackQueries/Reads
// — and panics on whole-profile walks (Peak, Overflows, OverflowSet) and
// on Clone. Mutations must be limited to residencies of videos the view
// has removed, which is exactly the greedy's contract: it only places
// copies of the file being rescheduled.
//
// OverlayWithout itself must be called sequentially (it builds the base's
// snapshots in place), but the returned views may then be used
// concurrently with each other and with base reads, provided the base is
// not mutated while views are live.
//
// In naive (reference) mode the view is a plain Clone with the video
// removed, so both query paths keep identical semantics.
func (l *Ledger) OverlayWithout(vid media.VideoID) *Ledger {
	if l.base != nil {
		panic("occupancy: OverlayWithout of an overlay view")
	}
	if l.naive {
		c := l.Clone()
		c.RemoveVideo(vid)
		return c
	}
	for n := range l.nodes {
		l.snapshot(topology.NodeID(n))
	}
	o := &Ledger{
		topo:    l.topo,
		catalog: l.catalog,
		nodes:   make([]nodeState, len(l.nodes)),
		base:    l,
		removed: map[media.VideoID]bool{vid: true},
		caps:    l.caps,
		isWh:    l.isWh,
	}
	o.maskVideo(vid)
	return o
}

// maskVideo inserts the negated breakpoint records of every base copy of
// the video into the overlay's delta, cancelling the copies out of the
// merged profile exactly (the records are recomputed bit-identically from
// the stored entries, and each negated Load jump coincides with the
// base's positive one, so the merged profile has no downward jumps).
func (l *Ledger) maskVideo(vid media.VideoID) {
	for _, node := range l.base.vidNodes[vid] {
		n := int(node)
		es := l.base.nodes[n].entries
		st := &l.nodes[n]
		for i := range es {
			if es[i].ref.Video != vid {
				continue
			}
			evs, ne := entryEvents(&es[i])
			if len(st.events) == 0 && cap(st.events) == 0 {
				// Fresh delta (the OverlayWithout path): batch the negated
				// records and sort once, instead of a sorted insert per
				// record. The insertion sort is stable, so records at equal
				// times keep insertion order exactly as insertEvent places
				// them. The buffer is sized to the video's own copies, not
				// to every entry at the node.
				own := 0
				for j := i; j < len(es); j++ {
					if es[j].ref.Video == vid {
						own++
					}
				}
				neg := make([]event, 0, 3*own)
				for j := i; j < len(es); j++ {
					if es[j].ref.Video != vid {
						continue
					}
					ev, m := entryEvents(&es[j])
					for k := 0; k < m; k++ {
						neg = append(neg, event{t: ev[k].t, jump: -ev[k].jump, dslope: -ev[k].dslope})
					}
				}
				for a := 1; a < len(neg); a++ {
					for b := a; b > 0 && neg[b].t < neg[b-1].t; b-- {
						neg[b], neg[b-1] = neg[b-1], neg[b]
					}
				}
				st.events = neg
				break
			}
			for k := 0; k < ne; k++ {
				st.events = insertEvent(st.events,
					event{t: evs[k].t, jump: -evs[k].jump, dslope: -evs[k].dslope})
			}
		}
	}
}

// Flatten materializes an overlay view into a standalone ledger: a clone
// of the base with the masked videos removed and the view's own
// residencies replayed on top — the committed result of a winning
// candidate. On a non-overlay ledger it returns the receiver unchanged,
// so callers treat the clone-based (naive) and overlay paths uniformly.
// The replay performs the same per-node mutations the clone-based path
// would have, so entry order, event arrays and Version counters come out
// bit-identical to Clone-then-RemoveVideo-then-reschedule.
func (l *Ledger) Flatten() *Ledger {
	if l.base == nil {
		return l
	}
	out := l.base.Clone()
	for vid := range l.removed {
		out.RemoveVideo(vid)
	}
	for n := range l.nodes {
		es := l.nodes[n].entries
		for i := range es {
			out.Add(es[i].ref, es[i].res)
		}
	}
	return out
}

// RemoveVideo drops every residency of the given video from the ledger,
// the first step of rescheduling a victim file. Nodes holding no copy of
// the video are left untouched (and, on a clone, un-copied).
func (l *Ledger) RemoveVideo(vid media.VideoID) {
	if l.base != nil && !l.removed[vid] {
		// Overlay view: mask the base's copies out of the delta once; the
		// loop below then drops any copies the view itself has added.
		if l.removed == nil {
			l.removed = make(map[media.VideoID]bool)
		}
		l.removed[vid] = true
		l.maskVideo(vid)
	}
	for n := range l.nodes {
		node := topology.NodeID(n)
		es := l.nodes[n].entries
		holds := false
		for i := range es {
			if es[i].ref.Video == vid {
				holds = true
				break
			}
		}
		if !holds {
			continue
		}
		l.own(node)
		st := &l.nodes[n]
		es = st.entries
		kept := es[:0]
		changed := false
		for i := range es {
			if es[i].ref.Video != vid {
				kept = append(kept, es[i])
			} else if l.removeEntryEvents(node, &es[i]) {
				changed = true
			}
		}
		st.entries = kept
		if changed {
			l.dirty(node)
		}
	}
}

// NumEntries returns the number of residencies registered at the node.
func (l *Ledger) NumEntries(node topology.NodeID) int { return len(l.nodes[node].entries) }

// SpaceAt returns the total occupancy at the node at time t, in bytes.
func (l *Ledger) SpaceAt(node topology.NodeID, t simtime.Time) float64 {
	l.touch(node)
	if l.base != nil {
		// Overlay view: the base's value plus the delta integrated up to t.
		total := l.base.SpaceAt(node, t)
		evs := l.nodes[node].events
		val, slope := 0.0, 0.0
		var last simtime.Time
		started := false
		for i := 0; i < len(evs) && evs[i].t <= t; i++ {
			if started {
				val += slope * evs[i].t.Sub(last).Seconds()
			}
			last, started = evs[i].t, true
			val += evs[i].jump
			slope += evs[i].dslope
		}
		if started {
			val += slope * t.Sub(last).Seconds()
		}
		return total + val
	}
	if l.naive {
		total := 0.0
		es := l.nodes[node].entries
		for i := range es {
			total += es[i].res.SpaceAt(t, es[i].size, es[i].playback)
		}
		return total
	}
	pts := l.snapshot(node)
	i := sort.Search(len(pts), func(k int) bool { return pts[k].t > t }) - 1
	if i < 0 {
		return 0
	}
	return pts[i].val + pts[i].slope*t.Sub(pts[i].t).Seconds()
}

// breakpoints returns the sorted distinct profile breakpoints of the node's
// entries, optionally restricted to [window.Start, window.End] (endpoints
// included so linear pieces at the window edges are evaluated).
func (l *Ledger) breakpoints(node topology.NodeID, window *simtime.Interval) []simtime.Time {
	var pts []simtime.Time
	add := func(t simtime.Time) {
		if window != nil && (t < window.Start || t > window.End) {
			return
		}
		pts = append(pts, t)
	}
	es := l.nodes[node].entries
	for i := range es {
		add(es[i].res.Load)
		add(es[i].res.LastService)
		add(es[i].res.LastService.Add(es[i].playback))
	}
	if window != nil {
		pts = append(pts, window.Start, window.End)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := pts[:0]
	var last simtime.Time
	for i, t := range pts {
		if i == 0 || t != last {
			out = append(out, t)
			last = t
		}
	}
	return out
}

// Peak returns the maximum total occupancy ever reached at the node and a
// time at which it is attained.
func (l *Ledger) Peak(node topology.NodeID) (float64, simtime.Time) {
	if l.base != nil {
		panic("occupancy: Peak on an overlay view; Flatten it first")
	}
	l.touch(node)
	best, when := 0.0, simtime.Time(0)
	if l.naive {
		for _, t := range l.breakpoints(node, nil) {
			if s := l.SpaceAt(node, t); s > best {
				best, when = s, t
			}
		}
		return best, when
	}
	// The total profile only jumps upward and decays between jumps (the
	// running slope is never positive), so the maximum is attained at a
	// post-jump breakpoint value; the earliest attaining time wins, as in
	// the reference walk.
	pts := l.snapshot(node)
	for i := range pts {
		if pts[i].val > best {
			best, when = pts[i].val, pts[i].t
		}
	}
	return best, when
}

// jumpAt returns the instantaneous upward jump of the node's occupancy at
// time t: copies reserve their peak space the moment loading starts, so the
// profile jumps by the copy's value exactly at its Load breakpoint. Used by
// the reference overflow walk.
func (l *Ledger) jumpAt(node topology.NodeID, t simtime.Time) float64 {
	total := 0.0
	es := l.nodes[node].entries
	for i := range es {
		if es[i].res.Load == t {
			total += es[i].res.SpaceAt(t, es[i].size, es[i].playback)
		}
	}
	return total
}

// Overflows returns the maximal intervals during which the node's occupancy
// strictly exceeds its capacity, in chronological order. The warehouse
// never overflows (its capacity is unbounded by definition).
//
// Between breakpoints the total profile is linear; at a breakpoint it may
// jump upward (a copy's space is reserved instantaneously at Load). The
// walk therefore treats each piece [a, b) as the segment from the post-jump
// value at a to the left limit at b, which is exact.
//
// The walk is memoized per node: a repeat call at an unchanged mutation
// version returns the previous result, so SORP's per-iteration AllOverflows
// only re-walks the nodes the last committed reschedule touched. Callers
// must treat the returned slice as read-only.
func (l *Ledger) Overflows(node topology.NodeID) []Overflow {
	if l.base != nil {
		panic("occupancy: Overflows on an overlay view; Flatten it first")
	}
	if l.topo.Node(node).Kind == topology.KindWarehouse {
		return nil
	}
	l.touch(node)
	st := &l.nodes[node]
	if st.ovValid && st.ovVer == st.ver {
		return st.ovs
	}
	var ovs []Overflow
	if l.naive {
		ovs = l.overflowsNaive(node)
	} else {
		ovs = l.overflowsIndexed(node)
	}
	st.ovValid, st.ovVer, st.ovs = true, st.ver, ovs
	return ovs
}

func (l *Ledger) overflowsIndexed(node topology.NodeID) []Overflow {
	pts := l.snapshot(node)
	if len(pts) == 0 {
		return nil
	}
	capacity := l.topo.Node(node).Capacity.Float()
	over := func(s float64) bool { return s > capacity+eps }

	var out []Overflow
	open := false
	var start simtime.Time
	peak := 0.0
	closeAt := func(end simtime.Time) {
		out = append(out, Overflow{
			Node:     node,
			Interval: simtime.Interval{Start: start, End: end},
			Peak:     peak,
			Excess:   peak - capacity,
		})
		open = false
		peak = 0
	}

	for i := range pts {
		a, sa := pts[i].t, pts[i].val
		var b simtime.Time
		var sb float64 // left limit approaching b
		last := i+1 == len(pts)
		if last {
			// After the final breakpoint every profile is zero.
			b, sb = a, sa
		} else {
			b = pts[i+1].t
			sb = pts[i].val + pts[i].slope*b.Sub(a).Seconds()
		}
		if !open {
			switch {
			case over(sa):
				open, start, peak = true, a, sa
			case !last && over(sb):
				// Segment ramps above capacity strictly inside (a, b).
				open, start, peak = true, crossing(a, sa, b, sb, capacity), sb
			}
		}
		if open {
			if sa > peak {
				peak = sa
			}
			if sb > peak {
				peak = sb
			}
			switch {
			case last:
				closeAt(a)
			case !over(sb):
				closeAt(crossing(a, sa, b, sb, capacity))
			}
		}
	}
	if open {
		closeAt(pts[len(pts)-1].t)
	}
	return mergeOverflows(out)
}

// overflowsNaive is the reference walk: per-breakpoint re-summation of
// Eq. 6 over every entry.
func (l *Ledger) overflowsNaive(node topology.NodeID) []Overflow {
	capacity := l.topo.Node(node).Capacity.Float()
	pts := l.breakpoints(node, nil)
	if len(pts) == 0 {
		return nil
	}
	over := func(s float64) bool { return s > capacity+eps }

	var out []Overflow
	open := false
	var start simtime.Time
	peak := 0.0
	closeAt := func(end simtime.Time) {
		out = append(out, Overflow{
			Node:     node,
			Interval: simtime.Interval{Start: start, End: end},
			Peak:     peak,
			Excess:   peak - capacity,
		})
		open = false
		peak = 0
	}

	for i := 0; i+1 <= len(pts); i++ {
		a := pts[i]
		sa := l.SpaceAt(node, a) // post-jump value at a
		var b simtime.Time
		var sb float64 // left limit approaching b
		last := i+1 == len(pts)
		if last {
			b, sb = a, sa
		} else {
			b = pts[i+1]
			sb = l.SpaceAt(node, b) - l.jumpAt(node, b)
		}
		if !open {
			switch {
			case over(sa):
				open, start, peak = true, a, sa
			case !last && over(sb):
				open, start, peak = true, crossing(a, sa, b, sb, capacity), sb
			}
		}
		if open {
			if sa > peak {
				peak = sa
			}
			if sb > peak {
				peak = sb
			}
			switch {
			case last:
				closeAt(a)
			case !over(sb):
				closeAt(crossing(a, sa, b, sb, capacity))
			}
		}
	}
	if open {
		closeAt(pts[len(pts)-1])
	}
	return mergeOverflows(out)
}

// crossing solves for the time where the line through (t0,s0)-(t1,s1)
// crosses the capacity level, rounded to the enclosing integer second so
// overflow intervals are conservative (never narrower than reality).
func crossing(t0 simtime.Time, s0 float64, t1 simtime.Time, s1 float64, capacity float64) simtime.Time {
	if s1 == s0 {
		return t0
	}
	frac := (capacity - s0) / (s1 - s0)
	x := float64(t0) + frac*float64(t1-t0)
	if s1 > s0 {
		return simtime.Time(math.Floor(x)) // ascending: start earlier
	}
	return simtime.Time(math.Ceil(x)) // descending: end later
}

func mergeOverflows(ovs []Overflow) []Overflow {
	if len(ovs) <= 1 {
		return ovs
	}
	out := ovs[:1]
	for _, o := range ovs[1:] {
		last := &out[len(out)-1]
		if o.Interval.Start <= last.Interval.End {
			if o.Interval.End > last.Interval.End {
				last.Interval.End = o.Interval.End
			}
			if o.Peak > last.Peak {
				last.Peak = o.Peak
				last.Excess = o.Excess
			}
		} else {
			out = append(out, o)
		}
	}
	return out
}

// AllOverflows returns every overflow at every storage, ordered by node ID
// then time.
func (l *Ledger) AllOverflows() []Overflow {
	var out []Overflow
	for _, node := range l.topo.Storages() {
		out = append(out, l.Overflows(node)...)
	}
	return out
}

// OverflowSet returns the references of the residencies at the node whose
// space profile overlaps the interval — the candidate victims for the
// overflow OF_{Δt, node} (paper §4.1).
//
// The overlap test is exact: the overflow interval is closed (it may be a
// single instant) and a residency's support is half-open, so a copy whose
// support merely abuts the interval — loading exactly at its end, or
// fully decayed exactly at its start — holds no space inside the overflow
// and is not a candidate victim.
func (l *Ledger) OverflowSet(node topology.NodeID, iv simtime.Interval) []Ref {
	if l.base != nil {
		panic("occupancy: OverflowSet on an overlay view; Flatten it first")
	}
	l.touch(node)
	var out []Ref
	es := l.nodes[node].entries
	for i := range es {
		sup := es[i].res.Support(es[i].playback)
		if overlapsOverflow(sup, iv) {
			out = append(out, es[i].ref)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Video != out[j].Video {
			return out[i].Video < out[j].Video
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// overlapsOverflow reports whether the half-open support [sup.Start,
// sup.End) shares time of positive measure with the closed overflow
// interval [iv.Start, iv.End] — or, for a degenerate (instant) overflow,
// whether the support covers the instant itself.
func overlapsOverflow(sup, iv simtime.Interval) bool {
	if iv.Start == iv.End {
		return sup.Start <= iv.Start && iv.Start < sup.End
	}
	return sup.Start < iv.End && iv.Start < sup.End
}

// CanFit reports whether adding the candidate residency to the node would
// keep total occupancy within capacity at all times. The check is exact:
// the combined profile is piecewise linear, so it suffices to test every
// breakpoint inside the candidate's support.
func (l *Ledger) CanFit(c schedule.Residency) bool {
	return l.CanFitExcluding(c, nil)
}

// CanFitExcluding is CanFit with one registered residency disregarded: the
// check for extending an existing copy passes the copy's own ref so its
// pre-extension profile is not double counted.
//
// This sits on the greedy's innermost path: a single chronological sweep
// merges the node's event index with the candidate's (and the negated
// excluded entry's) breakpoint records and tests the running total at
// every breakpoint inside the candidate's support — O(E) per call instead
// of the reference path's O(E²) per-breakpoint re-summation.
func (l *Ledger) CanFitExcluding(c schedule.Residency, exclude *Ref) bool {
	node := c.Loc
	if l.isWh[node] {
		return true
	}
	if l.naive {
		l.touch(node)
		return l.canFitNaive(c, exclude)
	}
	v := l.catalog.Video(c.Video)
	capacity := l.caps[node]
	size, playback := v.Size.Float(), v.Playback
	sup := c.Support(playback)
	if sup.Empty() {
		// Zero-span tentative cache: peaks at γ=0, occupies nothing.
		return true
	}
	basel := l
	var ovs []event
	if l.base != nil {
		basel = l.base
		ovs = l.nodes[node].events
	}
	pts := basel.snapshot(node)

	// Manual binary search for the last breakpoint at or before sup.Start
	// (sort.Search's indirect predicate call is measurable at this call
	// rate).
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].t > sup.Start {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	bk := lo - 1

	// Up to six extra sweep records: the candidate's own breakpoints plus
	// the excluded entry's, negated. Fixed array + insertion sort keeps
	// this allocation-free (the call sits on the greedy's innermost loop);
	// the candidate's records are built in place (residencyEvents unrolled,
	// same arithmetic) to skip the call and array copy.
	var extra [6]event
	ne := 0
	if playback > 0 {
		if cv := c.Gamma(playback) * size; cv != 0 {
			ck := cv / playback.Seconds()
			extra[0] = event{t: c.Load, jump: cv}
			extra[1] = event{t: c.LastService, dslope: -ck}
			extra[2] = event{t: c.LastService.Add(playback), dslope: ck}
			ne = 3
		}
	}
	if exclude != nil {
		es := l.nodes[node].entries
		for i := range es {
			if es[i].ref == *exclude {
				eev, m := entryEvents(&es[i])
				for k := 0; k < m; k++ {
					extra[ne] = event{t: eev[k].t, jump: -eev[k].jump, dslope: -eev[k].dslope}
					ne++
				}
				break
			}
		}
	}
	for i := 1; i < ne; i++ {
		for j := i; j > 0 && extra[j].t < extra[j-1].t; j-- {
			extra[j], extra[j-1] = extra[j-1], extra[j]
		}
	}

	// Walk the check times — sup.Start, every breakpoint (node, overlay or
	// extra) inside the support, then sup.End — evaluating the combined
	// profile as base (from the prefix snapshot, entered by binary search)
	// plus deltas: the ≤6 extra records and, on an overlay view, the
	// view's own per-node delta records. The combined profile is piecewise
	// linear, and every local maximum inside the support sits at a
	// post-jump breakpoint value or at the support's endpoints: ascending
	// segments exist only inside a negated copy's decay window and always
	// end at an evaluated breakpoint, and every negated Load jump
	// coincides with the base's positive one, so the merged profile never
	// jumps downward (left limits equal evaluated post-jump values).
	track := l.queried != nil
	slack := math.Inf(1)
	bval, bslope := 0.0, 0.0
	var bt simtime.Time
	bactive := bk >= 0
	if bactive {
		bval, bslope, bt = pts[bk].val, pts[bk].slope, pts[bk].t
	}
	bi := bk + 1
	dj := 0
	dval, dslope := 0.0, 0.0
	var dlast simtime.Time
	dstarted := false
	oj := 0
	oval, oslope := 0.0, 0.0
	var olast simtime.Time
	ostarted := false
	for T := sup.Start; ; {
		for bi < len(pts) && pts[bi].t <= T {
			bval, bslope, bt = pts[bi].val, pts[bi].slope, pts[bi].t
			bactive = true
			bi++
		}
		for dj < ne && extra[dj].t <= T {
			if dstarted {
				dval += dslope * extra[dj].t.Sub(dlast).Seconds()
			}
			dlast, dstarted = extra[dj].t, true
			dval += extra[dj].jump
			dslope += extra[dj].dslope
			dj++
		}
		for oj < len(ovs) && ovs[oj].t <= T {
			if ostarted {
				oval += oslope * ovs[oj].t.Sub(olast).Seconds()
			}
			olast, ostarted = ovs[oj].t, true
			oval += ovs[oj].jump
			oslope += ovs[oj].dslope
			oj++
		}
		total := dval
		if dstarted && T > dlast {
			total += dslope * T.Sub(dlast).Seconds()
		}
		if ostarted {
			total += oval
			if T > olast {
				total += oslope * T.Sub(olast).Seconds()
			}
		}
		if bactive {
			total += bval + bslope*T.Sub(bt).Seconds()
		}
		if track {
			if d := math.Abs(total - (capacity + eps)); d < slack {
				slack = d
			}
		}
		if total > capacity+eps {
			if track {
				l.noteFit(node, sup, slack)
			}
			return false
		}
		if T == sup.End {
			if track {
				l.noteFit(node, sup, slack)
			}
			return true
		}
		next := sup.End
		if bi < len(pts) && pts[bi].t < next {
			next = pts[bi].t
		}
		if dj < ne && extra[dj].t < next {
			next = extra[dj].t
		}
		if oj < len(ovs) && ovs[oj].t < next {
			next = ovs[oj].t
		}
		T = next
	}
}

// canFitNaive is the reference fit check: per-breakpoint re-summation of
// every entry's profile.
func (l *Ledger) canFitNaive(c schedule.Residency, exclude *Ref) bool {
	node := c.Loc
	v := l.catalog.Video(c.Video)
	capacity := l.topo.Node(node).Capacity.Float()
	size, playback := v.Size.Float(), v.Playback
	sup := c.Support(playback)
	if sup.Empty() {
		return true
	}
	fitsAt := func(t simtime.Time) bool {
		if t < sup.Start || t > sup.End {
			return true
		}
		have := l.SpaceAt(node, t)
		if exclude != nil {
			es := l.nodes[node].entries
			for i := range es {
				if es[i].ref == *exclude {
					have -= es[i].res.SpaceAt(t, es[i].size, es[i].playback)
					break
				}
			}
		}
		return have+c.SpaceAt(t, size, playback) <= capacity+eps
	}
	if !fitsAt(c.Load) || !fitsAt(c.LastService) || !fitsAt(c.LastService.Add(playback)) {
		return false
	}
	es := l.nodes[node].entries
	for i := range es {
		if !fitsAt(es[i].res.Load) || !fitsAt(es[i].res.LastService) || !fitsAt(es[i].res.LastService.Add(es[i].playback)) {
			return false
		}
	}
	return true
}

// Banned describes a forbidden (interval, storage) pair the rejective
// greedy must respect when rescheduling a victim: the victim may not hold a
// copy at Node whose profile overlaps Interval (paper §4.2).
type Banned struct {
	Node     topology.NodeID
	Interval simtime.Interval
}

// Violates reports whether a candidate residency's space profile overlaps
// the banned window at the banned node.
func (bn Banned) Violates(c schedule.Residency, playback simtime.Duration) bool {
	if c.Loc != bn.Node {
		return false
	}
	sup := c.Support(playback)
	// Endpoint-inclusive: an overflow interval may be a single instant.
	return sup.Start <= bn.Interval.End && bn.Interval.Start < sup.End
}
