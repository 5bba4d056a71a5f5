package core

import (
	"testing"

	"tapioca/internal/mpi"
	"tapioca/internal/netsim"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/workload"
)

// benchDeclared builds the flattened per-rank declarations the planner sees
// for a HACC-IO run (AoS: 9 strided variables per rank) or an IOR run (one
// contiguous block per rank).
func benchDeclared(ranks int, hacc bool) [][]storage.Seg {
	all := make([][]storage.Seg, ranks)
	for r := 0; r < ranks; r++ {
		if hacc {
			for _, segs := range workload.HACCDeclared(r, ranks, 25000, workload.AoS) {
				all[r] = append(all[r], segs...)
			}
		} else {
			all[r] = workload.IORSegs(r, 1<<20)
		}
	}
	return all
}

// BenchmarkPlanBuild measures the declared-I/O planner at paper scale:
// 16,384 ranks (1,024 nodes × 16), 192 aggregators, 16 MB buffers — the
// fig13 full-scale configuration. The flat piece arena and allocation-free
// window accumulation keep this linear in declared segments.
func BenchmarkPlanBuild(b *testing.B) {
	for _, tc := range []struct {
		name  string
		ranks int
		hacc  bool
	}{
		{"hacc-aos-16k", 16384, true},
		{"ior-16k", 16384, false},
		{"hacc-aos-2k", 2048, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			all := benchDeclared(tc.ranks, tc.hacc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := buildPlan(all, 192, 16<<20, 16<<20, false)
				if len(p.parts) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// BenchmarkStagedTreeWrite measures one payload-carrying write session
// through the two leader-heavy pipelines — intra-node staging and a fan-in-4
// aggregation tree — on 32 nodes × 8 ranks writing two interleaved 16 KiB
// blocks each (8 MiB) with 2 aggregators and 1 MiB buffers. B/op is where
// window memory shows: staging leaders and tree vertices back only their
// node's or subtree's span, aggregators their two buffers.
func BenchmarkStagedTreeWrite(b *testing.B) {
	const nodes, rpn, block = 32, 8, 16 << 10
	const ranks = nodes * rpn
	decl := make([][][]storage.Seg, ranks)
	data := make([][][]byte, ranks)
	for r := range decl {
		decl[r] = [][]storage.Seg{{storage.Strided(int64(r)*block, block, ranks*block, 2)}}
		data[r] = workload.FillData(decl[r], 1)
	}
	topo := topology.NewFlat(nodes)
	fanin := tree.Shape{Kind: tree.FanIn, K: 4}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"staged", Config{Aggregators: 2, BufferSize: 1 << 20, IntraNodeStaging: true}},
		{"fanin4", Config{Aggregators: 2, BufferSize: 1 << 20, Tree: &fanin}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(ranks * 2 * block)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := storage.NewNullFS()
				fab := netsim.New(topo, netsim.Config{})
				_, err := mpi.Run(mpi.Config{Ranks: ranks, RanksPerNode: rpn, Fabric: fab}, func(c *mpi.Comm) {
					var f *storage.File
					if c.Rank() == 0 {
						f = sys.Create("bench", storage.FileOptions{})
					}
					f = c.Bcast(0, 8, f).(*storage.File)
					w := New(c, sys, f, tc.cfg)
					if err := w.InitData(decl[c.Rank()], data[c.Rank()]); err != nil {
						panic(err)
					}
					if err := w.WriteAll(); err != nil {
						panic(err)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
