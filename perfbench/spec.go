package main

import (
	"tapioca/internal/core"
	"tapioca/internal/mpiio"
	"tapioca/internal/storage"
	"tapioca/internal/tune"
	"tapioca/internal/workload"
)

// spec is one benchmark workload: a platform, an access pattern, the
// configurations of both I/O paths and how many times each timed operation
// repeats inside one round. Every count is fixed, so a run measures the same
// work on every commit; only the number of rounds follows --seconds.
type spec struct {
	name string
	why  string

	mira       bool // Mira torus + GPFS; otherwise Theta dragonfly + Lustre
	nodes, rpn int
	osts       int  // Lustre OST count (Theta only)
	subfile    bool // one file per Pset (Mira): each Pset is its own I/O group
	nullFS     bool // infinitely fast storage tier: isolates the network phase
	payload    bool // real payload bytes (data plane on) instead of phantom mode

	// lossRate and rtoNs arm the fabric's deterministic loss plan. Its
	// seed is part of the workload, not of its input: the drops it picks
	// move virtual time, which must read the same on every seed.
	lossRate float64
	rtoNs    int64

	// pattern returns the declared operations of I/O-group rank r of n.
	pattern func(r, n int) [][]storage.Seg

	cfg   core.Config
	hints mpiio.Hints
	fopt  storage.FileOptions

	// tuneOpt is the autotuner search run each round. With useTuned the
	// round's TAPIOCA and MPI-IO sessions run the searched configuration
	// (its tree shape, and the same shape as the MPI-IO tree plan with
	// staging); otherwise cfg/hints stay as given.
	tuneOpt  tune.Options
	useTuned bool

	// Per-round repetitions. Each host-timed metric sums its operation
	// over a whole round, about a second or more on a 2-core host.
	tunes, writes, reads, mpiioWrites int
}

const (
	lossRate  = 0.2       // strided-tree-lossy: per-transfer drop probability
	rtoNs     = 1_000_000 // strided-tree-lossy: retransmit timeout, 1 ms
	faultSeed = 11        // strided-tree-lossy: the loss plan's seed
)

var specs = []*spec{
	{
		name: "hacc-mira-phantom",
		why:  "engine-bound: 4096 simulated ranks, phantom payload; HACC-IO AoS checkpoints per Pset on Mira/GPFS",
		mira: true, nodes: 256, rpn: 16, subfile: true,
		pattern: func(r, n int) [][]storage.Seg {
			return workload.HACCDeclared(r, n, 100_000, workload.AoS)
		},
		cfg: core.Config{Aggregators: 16, BufferSize: 16 << 20},
		hints: mpiio.Hints{
			CBNodes: 16, CBBufferSize: 16 << 20,
			Strategy: mpiio.AggrBridgeFirst, AlignDomains: true,
		},
		tuneOpt: tune.Options{},
		tunes:   2, writes: 8, reads: 5, mpiioWrites: 1,
	},
	{
		name:  "hacc-theta-bytes",
		why:   "byte path: 128 ranks carry 93 MiB of real HACC-IO SoA payload through windows, coalesced store I/O and CRC on Theta/Lustre",
		nodes: 32, rpn: 4, osts: 8, payload: true,
		pattern: func(r, n int) [][]storage.Seg {
			return workload.HACCDeclared(r, n, 20_000, workload.SoA)
		},
		cfg: core.Config{Aggregators: 8, BufferSize: 4 << 20},
		hints: mpiio.Hints{
			CBNodes: 8, CBBufferSize: 4 << 20,
			Strategy: mpiio.AggrNodeSpread, AlignDomains: true, CyclicDomains: true,
		},
		fopt:    storage.FileOptions{StripeCount: 8, StripeSize: 1 << 20},
		tuneOpt: tune.Options{},
		tunes:   25, writes: 12, reads: 10, mpiioWrites: 16,
	},
	{
		name:  "strided-tree-lossy",
		why:   "tuner + tree executor: searched aggregation tree for 16 KiB strided blocks over a fabric with 20% loss and 1 ms RTO",
		nodes: 128, rpn: 16, nullFS: true, payload: true,
		lossRate: lossRate, rtoNs: rtoNs,
		pattern: stridedPattern(16<<10, 2),
		// The set-up warm-up runs before any search: a flat session on the
		// grid's widest aggregator count and buffer.
		cfg: core.Config{Aggregators: 8, BufferSize: 2 << 20},
		tuneOpt: tune.Options{
			Aggregators:    []int{1, 2, 4, 8},
			BufferSizes:    []int64{1 << 20, 2 << 20},
			TreeSearch:     true,
			MessagePenalty: lossRate * rtoNs * 1e-9,
		},
		useTuned: true,
		tunes:    2, writes: 3, reads: 8, mpiioWrites: 14,
	},
}

// stridedPattern interleaves every rank's blocks across the file: block j of
// rank r lands at (j·n + r)·blk, so each aggregation round carries one small
// block from every rank — the many-small-messages regime trees exist for.
func stridedPattern(blk int64, blocks int) func(r, n int) [][]storage.Seg {
	return func(r, n int) [][]storage.Seg {
		segs := make([]storage.Seg, blocks)
		for j := range segs {
			segs[j] = storage.Contig((int64(j)*int64(n)+int64(r))*blk, blk)
		}
		return [][]storage.Seg{segs}
	}
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}
