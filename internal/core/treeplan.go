package core

// Synthesized aggregation trees (Config.Tree): the write pipeline's interior
// reduction levels, generalizing the fixed two-phase shape the same way
// intra-node staging (staging.go) generalized the member → aggregator hop.
//
// The tree lives over the partition's node groups: every group's leader is a
// tree vertex, the aggregator's group is the root, and internal/tree arranges
// the vertices into relay levels (fan-in-k, per-topology-group, chains).
// Execution reuses the staging machinery unchanged as the base level —
// members deposit into their group leader at memory bandwidth — and adds one
// forwarding phase per interior level: a vertex at depth d issues a single
// coalesced PutGather of its whole subtree span to its parent's window, then
// a window fence orders level d against level d−1. All offsets are natural
// (bufOff-relative), so bytes stream through existing window memory with no
// per-hop re-staging and the root's flush path is untouched. The degenerate
// shapes (flat, node-staged) build no interior levels and the pipeline is
// byte-identical to today's paths; the same holds for any partition whose
// synthesized tree comes out with fewer than two levels (setupTree returns
// nil and the session runs the staged or flat path verbatim).
//
// Fences are collectives over the window's communicator — the partition — so
// the interior fence budget is a per-partition constant (tree depth − 1),
// fixed at setup and run every round whether or not the round engages the
// tree. The per-round engagement decision is computed from the globally
// shared plan, identically on every member without communication: a round
// runs the tree only if every vertex's subtree span is contiguous AND every
// non-root multi-member group stages that round under staging.go's own rule.
// The second condition is load-bearing, not an optimization: a group that
// does not stage sends its members' pieces straight to the aggregator, and a
// diverted ancestor forwarding a span over those pieces would overwrite the
// root's copy with garbage. Rounds that fail either test fall back to the
// staged/flat path for the whole partition.
//
// Trees are write-side, like staging: the read pipeline's scatter has no
// incast to shape. On an aggregator failover the partition's tree collapses
// to the node-staged degenerate rooted at the new aggregator — interior
// phases become empty fences (the budget is frozen, fences are collective) —
// and the replay path (direct puts from rank-side payload buffers,
// recover.go) needs no tree: interior windows never hold the only copy of
// any byte.

import (
	"fmt"

	"tapioca/internal/storage"
	"tapioca/internal/tree"
)

// treeRole is one rank's role in the tree schedule.
type treeRole struct {
	t *tree.Tree
	// vertex is the tree vertex this rank leads (it is the first partition
	// rank of its node group), or -1 for non-leader members.
	vertex int
	depth  int
	// diverted: this vertex's coalesced put leaves the inline (staged/flat)
	// path — it has children to wait for, or sits below depth 1.
	diverted bool
	// parentLocal is the partition-local rank the vertex forwards to: the
	// aggregator itself when the parent is the root vertex, else the parent
	// group's leader.
	parentLocal int
	// fences is the partition's interior fence budget per round: tree depth
	// minus one, frozen at setup (failover must not change it).
	fences int
	// engaged[r] reports whether round r runs the tree (see package doc);
	// shared read-only with the partition's other members.
	engaged []bool
	// spans[r] is this vertex's subtree bufOff span [lo,hi) for round r
	// (zero-width when the subtree contributes nothing); nil for members.
	spans [][2]int64
	// collapsed is set by failover: the tree degrades to node-staged under
	// the new root and interior phases turn into empty fences.
	collapsed bool
	// msgs counts coalesced vertex sends by sender depth (index 0 unused).
	msgs []int64
}

// active reports whether round r diverts this rank's coalesced put into the
// interior machinery.
func (tr *treeRole) active(r int) bool {
	return tr != nil && !tr.collapsed && tr.diverted && tr.engaged[r]
}

// partLeaders builds the tree's leader list for this rank's partition: node
// groups by run-length over the partition's local-rank order, weighted by
// the planner's per-member volumes. starts holds each group's first local
// rank, with a len(members) sentinel appended.
func (w *Writer) partLeaders(pp *partPlan) (leaders []tree.Leader, starts []int) {
	for i := 0; i < pp.rankN; i++ {
		node := w.pc.NodeOfRank(i)
		if i == 0 || node != w.pc.NodeOfRank(i-1) {
			leaders = append(leaders, tree.Leader{Node: node})
			starts = append(starts, i)
		}
		if pp.omega != nil {
			leaders[len(leaders)-1].Bytes += pp.omega[i]
		}
	}
	starts = append(starts, pp.rankN)
	return leaders, starts
}

// treeSched is a partition's tree schedule for one (shape, root): the
// synthesized tree, the node groups' first local ranks, and per round the
// engagement decision and every vertex's subtree span. It depends only on the
// shared plan, the partition's node mapping and the fabric, so the first
// member to need it builds it on partPlan and the others reuse it, the way
// the election table is cached.
type treeSched struct {
	shape tree.Shape
	root  int // aggregator's partition-local rank
	// t is nil when the tree is structurally degenerate (fewer than two
	// levels) or the node mapping defeats it: the partition runs the staged
	// or flat path verbatim.
	t       *tree.Tree
	starts  []int // each vertex's first local rank, plus a rankN sentinel
	engaged []bool
	spans   [][][2]int64 // spans[v][r]: vertex v's subtree bufOff span
}

// treeSchedFor returns the partition's cached schedule for (shape, root),
// building it on first use. The tree is rooted at the aggregator's group, so
// a schedule is only valid for the root it was built for. (Engine procs are
// serial, so the lazy fill needs no synchronization; members treat the
// schedule as read-only.)
func (w *Writer) treeSchedFor(shape tree.Shape, root int) *treeSched {
	pp := &w.plan.parts[w.part]
	for _, ts := range pp.trees {
		if ts.shape == shape && ts.root == root {
			return ts
		}
	}
	ts := w.buildTreeSched(pp, shape, root)
	pp.trees = append(pp.trees, ts)
	return ts
}

// buildTreeSched synthesizes the partition's tree rooted at the group of
// local rank root and scans the shared piece arena once for the per-round
// spans and engagement decisions.
func (w *Writer) buildTreeSched(pp *partPlan, shape tree.Shape, root int) *treeSched {
	ts := &treeSched{shape: shape, root: root}
	leaders, starts := w.partLeaders(pp)
	// A node appearing in two non-adjacent runs would let a member bypass
	// its vertex leader (its staging plan keys on node identity, the tree on
	// run identity): disable the tree outright.
	seen := make(map[int]bool, len(leaders))
	for _, l := range leaders {
		if seen[l.Node] {
			return ts
		}
		seen[l.Node] = true
	}
	var grouper tree.Grouper
	if fab := w.c.World().Fabric(); fab != nil {
		grouper = tree.GrouperOf(fab.Topology())
	}
	t := tree.Build(shape, leaders, tree.RootLeader(starts, root), grouper)
	if t.Levels < 2 {
		return ts // structurally degenerate here: nothing to synthesize
	}
	ts.t, ts.starts = t, starts

	// Per-round spans and engagement: one cursor per member over the shared
	// piece arena. Each piece folds into its own group's span (the staging
	// contiguity test) and into every ancestor vertex's subtree span.
	nv := len(leaders)
	type span struct{ lo, hi, total int64 }
	vs := make([]span, nv) // subtree spans, folded up ancestors
	gs := make([]span, nv) // own-group spans, staging granularity
	cursors := make([][]putPiece, pp.rankN)
	memberVertex := make([]int, pp.rankN)
	for i := 0; i < pp.rankN; i++ {
		cursors[i] = w.plan.piecesOf(pp.rankLo + i)
	}
	for v := 0; v+1 < len(starts); v++ {
		for i := starts[v]; i < starts[v+1]; i++ {
			memberVertex[i] = v
		}
	}
	ts.engaged = make([]bool, pp.rounds)
	ts.spans = make([][][2]int64, nv)
	arena := make([][2]int64, nv*pp.rounds)
	for v := range ts.spans {
		ts.spans[v] = arena[v*pp.rounds : (v+1)*pp.rounds]
	}
	for r := 0; r < pp.rounds; r++ {
		for v := 0; v < nv; v++ {
			vs[v] = span{lo: -1}
			gs[v] = span{lo: -1}
		}
		for i := range cursors {
			pieces := cursors[i]
			for len(pieces) > 0 && pieces[0].round == r {
				pc0 := pieces[0]
				g := &gs[memberVertex[i]]
				if g.lo < 0 || pc0.bufOff < g.lo {
					g.lo = pc0.bufOff
				}
				if end := pc0.bufOff + pc0.bytes; end > g.hi {
					g.hi = end
				}
				g.total += pc0.bytes
				for a := memberVertex[i]; a >= 0; a = t.Parent[a] {
					s := &vs[a]
					if s.lo < 0 || pc0.bufOff < s.lo {
						s.lo = pc0.bufOff
					}
					if end := pc0.bufOff + pc0.bytes; end > s.hi {
						s.hi = end
					}
					s.total += pc0.bytes
				}
				pieces = pieces[1:]
			}
			cursors[i] = pieces
		}
		engaged := true
		for v := 0; v < nv && engaged; v++ {
			if vs[v].total > 0 && vs[v].hi-vs[v].lo != vs[v].total {
				engaged = false
			}
			// Non-root multi-member groups must stage this round (staging.go's
			// contiguity rule) or their members' pieces bypass the tree.
			if v != t.Root && starts[v+1]-starts[v] > 1 &&
				gs[v].total > 0 && gs[v].hi-gs[v].lo != gs[v].total {
				engaged = false
			}
		}
		ts.engaged[r] = engaged
		for v := 0; v < nv; v++ {
			if vs[v].total > 0 {
				ts.spans[v][r] = [2]int64{vs[v].lo, vs[v].hi}
			}
		}
	}
	return ts
}

// setupTree derives this rank's tree role from the partition's cached
// schedule — no communication, every member sees the identical structure.
// Returns nil when the synthesized tree is structurally degenerate (fewer
// than two levels) or the node mapping defeats it; the partition then runs
// the staged or flat path verbatim.
func (w *Writer) setupTree(shape tree.Shape) *treeRole {
	ts := w.treeSchedFor(shape, w.aggLocal)
	t := ts.t
	if t == nil {
		return nil
	}
	tr := &treeRole{
		t:       t,
		vertex:  -1,
		fences:  t.Levels - 1,
		engaged: ts.engaged,
		msgs:    make([]int64, t.Levels+1),
	}
	myLocal := w.pc.Rank()
	for v := 0; v+1 < len(ts.starts); v++ {
		if ts.starts[v] == myLocal {
			tr.vertex = v
		}
	}
	if tr.vertex < 0 {
		return tr
	}
	tr.depth = t.Depth[tr.vertex]
	tr.spans = ts.spans[tr.vertex]
	hasChild := false
	for _, p := range t.Parent {
		if p == tr.vertex {
			hasChild = true
			break
		}
	}
	tr.diverted = tr.depth >= 1 && (hasChild || tr.depth >= 2)
	if p := t.Parent[tr.vertex]; p >= 0 {
		if p == t.Root {
			tr.parentLocal = w.aggLocal
		} else {
			tr.parentLocal = ts.starts[p]
		}
	}
	return tr
}

// treeForward issues this vertex's coalesced interior put for round r: the
// whole subtree span as already assembled in this rank's own window —
// members' staged deposits plus children's forwarded spans, both published
// before this runs (FenceLocal and the deeper level's fence respectively) —
// with the rank's own pieces gathered fresh over their slots. Returns the
// put's deferred injection hold and the bytes sent.
func (w *Writer) treeForward(r int, bufID int64, own []putPiece, dataErr *error) (free, sent int64) {
	tp := w.tp
	lo, hi := tp.spans[r][0], tp.spans[r][1]
	if hi <= lo {
		return 0, 0
	}
	var fill func(dst []byte)
	if w.pl != nil {
		pp := &w.plan.parts[w.part]
		base := bufID * w.cfg.BufferSize
		window := w.win.Local(base+lo, hi-lo)
		flo, fhi := storage.SpanAll(pp.flush[r].segs)
		round := r
		fill = func(dst []byte) {
			// The window already holds every deposit and child forward over
			// this span; the vertex's own slots hold garbage there and are
			// overwritten by the gathers — engagement guarantees the union
			// covers the span exactly.
			copy(dst, window)
			for _, opc := range own {
				sub := dst[opc.bufOff-lo:][:opc.bytes]
				if n := w.pl.Gather(sub, flo, fhi); n != opc.bytes && *dataErr == nil {
					*dataErr = fmt.Errorf("core: round %d tree forward gather produced %d bytes, plan expects %d", round, n, opc.bytes)
				}
			}
		}
	}
	free = w.win.PutGather(tp.parentLocal, bufID*w.cfg.BufferSize+lo, hi-lo, fill)
	tp.msgs[tp.depth]++
	return free, hi - lo
}
