package core

// Window memory under the pipeline: each half of the double buffer is a
// window slot backed only over the bytes its rank touches (mpi.Win). These
// tests pin the two consequences the pipeline relies on — an aggregator's
// slot may grow while the other slot's background store job still reads its
// buffer, and a staging leader or tree vertex backs only its node's or
// subtree's span, never the whole 2×BufferSize window.

import (
	"sync"
	"testing"

	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
)

// TestWindowSlotGrowsUnderInFlightStore writes three regions whose rounds
// fill 4 KiB, then 8 KiB, then the whole 64 KiB buffer: round 2 grows slot 0
// and round 3 grows slot 1 while the other slot's store job (double
// buffered, data plane on) is still running. Under -race this is the check
// that growing one slot never touches the memory another slot's job reads;
// the round trip checks no byte was lost across a re-backing.
func TestWindowSlotGrowsUnderInFlightStore(t *testing.T) {
	const ranks, rpn = 8, 2
	const buf = 64 << 10
	decl := make([][][]storage.Seg, ranks)
	for r := int64(0); r < ranks; r++ {
		decl[r] = [][]storage.Seg{
			{storage.Contig(r*512, 512)},             // round 0: 4 KiB
			{storage.Contig(1<<20+r*1024, 1024)},     // round 1: 8 KiB
			{storage.Contig(2<<20+r*24<<10, 24<<10)}, // rounds 2-4: 64 KiB each
		}
	}
	for _, be := range dataPlaneBackends()[:2] {
		t.Run(be.name, func(t *testing.T) {
			sys, fab := be.build()
			var mu sync.Mutex
			aggAlloc := int64(-1)
			stagedRun(t, sys, fab, ranks, rpn, decl, 4242, Config{Aggregators: 1, BufferSize: buf},
				"grow-"+be.name, func(rank int, w *Writer) {
					if w.Rounds() != 5 {
						t.Errorf("rank %d: %d rounds, want 5", rank, w.Rounds())
					}
					if w.isAgg {
						mu.Lock()
						aggAlloc = w.win.Allocated(w.pc.Rank())
						mu.Unlock()
					}
				})
			// Both slots were filled completely by rounds 2 and 3.
			if aggAlloc != 2*buf {
				t.Fatalf("aggregator backs %d window bytes, want both slots grown to %d", aggAlloc, 2*buf)
			}
		})
	}
}

// TestLeaderWindowBoundedBySpans pins the footprint of staging leaders and
// tree vertices: a non-aggregator rank's window backs at most twice the
// union, per slot, of the spans it receives and forwards — its node's staged
// range and, for a tree vertex, its subtree span — far below the full
// 2×BufferSize window every rank used to allocate.
func TestLeaderWindowBoundedBySpans(t *testing.T) {
	const nodes, rpn = 16, 4
	const ranks = nodes * rpn
	const buf = 256 << 10
	const l, n = 512, 32
	decl := make([][][]storage.Seg, ranks)
	for r := range decl {
		decl[r] = [][]storage.Seg{{storage.Strided(int64(r)*l, l, int64(ranks)*l, n)}}
	}
	fanin := tree.Shape{Kind: tree.FanIn, K: 4}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"staged", Config{Aggregators: 1, BufferSize: buf, IntraNodeStaging: true}},
		{"fanin4", Config{Aggregators: 1, BufferSize: buf, Tree: &fanin}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab := netsim.New(topology.NewFlat(nodes), netsim.Config{Contention: netsim.ContentionLinks})
			var mu sync.Mutex
			var leaders, vertices int
			stagedRun(t, storage.NewNullFS(), fab, ranks, rpn, decl, 77, tc.cfg, "leader-"+tc.name,
				func(rank int, w *Writer) {
					if w.isAgg {
						return
					}
					got := w.win.Allocated(w.pc.Rank())
					// Per slot, the union of the spans this rank receives.
					var lo, hi [2]int64
					lo[0], lo[1] = buf, buf
					add := func(r int, a, b int64) {
						if b > a {
							lo[r%2], hi[r%2] = min(lo[r%2], a), max(hi[r%2], b)
						}
					}
					leader := w.stage != nil && w.stage.leader
					for r := 0; r < w.Rounds(); r++ {
						if leader && w.stage.rounds[r].staged {
							add(r, w.stage.rounds[r].lo, w.stage.rounds[r].hi)
						}
						if w.tp != nil && w.tp.spans != nil {
							add(r, w.tp.spans[r][0], w.tp.spans[r][1])
						}
					}
					var bound int64
					for s := range lo {
						if hi[s] > lo[s] {
							bound += 2 * (hi[s] - lo[s])
						}
					}
					mu.Lock()
					defer mu.Unlock()
					if got > bound {
						t.Errorf("rank %d backs %d window bytes, its spans bound it to %d", rank, got, bound)
					}
					if got > 0 {
						leaders++
						if w.tp != nil && w.tp.diverted {
							vertices++
						}
					}
					if got >= 2*buf {
						t.Errorf("rank %d backs its whole %d-byte window", rank, got)
					}
				})
			if leaders == 0 {
				t.Fatal("no leader backed any window memory — the staged leg never engaged")
			}
			if tc.cfg.Tree != nil && vertices == 0 {
				t.Fatal("no interior tree vertex backed window memory — the tree leg never engaged")
			}
			t.Logf("%d leaders with window memory, %d interior vertices", leaders, vertices)
		})
	}
}
