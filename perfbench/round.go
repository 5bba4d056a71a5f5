package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"tapioca/internal/core"
	"tapioca/internal/fault"
	"tapioca/internal/mpi"
	"tapioca/internal/mpiio"
	"tapioca/internal/netsim"
	"tapioca/internal/obs"
	"tapioca/internal/storage"
	"tapioca/internal/topology"
	"tapioca/internal/tree"
	"tapioca/internal/tune"
	"tapioca/internal/workload"
)

// bench is a set-up workload: the platform's topology (shared by every
// round, as its distance cache is) and the generated inputs. Fabrics and
// storage systems carry booking state, so each round builds fresh ones.
type bench struct {
	sp   *spec
	seed uint64

	torus *topology.Torus5D
	dfly  *topology.Dragonfly
	dc    *topology.DistanceCache

	ranks      int
	group      []int // world rank → I/O group (Pset when subfiling)
	groupBytes []int64
	totalBytes int64 // declared bytes of one write over all groups

	decl [][][]storage.Seg // world rank → declared operations
	flat [][]storage.Seg   // world rank → declared segments in file-offset order
	data [][][]byte        // world rank → payload (nil in phantom mode)
	wcrc []uint64          // world rank → CRC-64 of its payload in file-offset order
}

func (b *bench) topo() topology.Topology {
	if b.torus != nil {
		return b.torus
	}
	return b.dfly
}

// setup builds the platform and the inputs, then runs one warm-up write
// session so lazily built state (distance rows, goroutine stacks) is in place
// before anything is timed. It is timed as a whole by the caller.
func setup(sp *spec, seed uint64, tr *spans) (*bench, error) {
	b := &bench{sp: sp, seed: seed, ranks: sp.nodes * sp.rpn}
	t0 := time.Now()
	if sp.mira {
		b.torus = topology.MiraTorus(sp.nodes)
	} else {
		b.dfly = topology.ThetaDragonfly(sp.nodes, topology.RouteMinimal)
	}
	b.dc = topology.NewDistanceCache(b.topo())
	tr.add("topology", t0, time.Now())

	t0 = time.Now()
	harness(func() { b.inputs() })
	tr.add("workload.inputs", t0, time.Now())

	t0 = time.Now()
	fab, sys := b.rig()
	_, err := mpi.Run(mpi.Config{Ranks: b.ranks, RanksPerNode: sp.rpn, Fabric: fab}, func(c *mpi.Comm) {
		g := b.comm(c)
		f := openShared(g, sys, "warmup", sp.fopt)
		w := core.New(g, sys, f, sp.cfg)
		if err := w.InitData(b.decl[c.Rank()], b.data[c.Rank()]); err != nil {
			panic(err)
		}
		if err := w.WriteAll(); err != nil {
			panic(err)
		}
	})
	tr.add("warmup", t0, time.Now())
	return b, err
}

// inputs generates the declared patterns and, with a payload, the bytes and
// their reference checksums.
func (b *bench) inputs() {
	sp := b.sp
	b.group = make([]int, b.ranks)
	rankInGroup := make([]int, b.ranks)
	size := map[int]int{}
	for r := range b.group {
		if sp.subfile {
			b.group[r] = b.torus.IONodeOf(r / sp.rpn)
		}
		rankInGroup[r] = size[b.group[r]]
		size[b.group[r]]++
	}
	b.groupBytes = make([]int64, len(size))
	b.decl = make([][][]storage.Seg, b.ranks)
	b.flat = make([][]storage.Seg, b.ranks)
	b.data = make([][][]byte, b.ranks)
	b.wcrc = make([]uint64, b.ranks)
	for r := range b.decl {
		gid := b.group[r]
		b.decl[r] = sp.pattern(rankInGroup[r], size[gid])
		for _, segs := range b.decl[r] {
			b.flat[r] = append(b.flat[r], segs...)
			b.groupBytes[gid] += storage.TotalBytes(segs)
		}
		if sp.payload {
			if !offsetOrdered(b.flat[r]) {
				panic(fmt.Sprintf("perfbench: rank %d declares segments out of file order", r))
			}
			b.data[r] = workload.FillData(b.decl[r], b.seed)
			for _, p := range b.data[r] {
				b.wcrc[r] = storage.CRC64(b.wcrc[r], p)
			}
		}
	}
	for _, n := range b.groupBytes {
		b.totalBytes += n
	}
}

// offsetOrdered reports whether segs enumerate file offsets in increasing
// order, which makes the packed payload's CRC the file-order CRC that
// Writer.DataChecksum and File.StoreChecksum compute.
func offsetOrdered(segs []storage.Seg) bool {
	end := int64(-1)
	for _, s := range segs {
		if s.Count == 0 || s.Len == 0 {
			continue
		}
		if s.Off < end || (s.Count > 1 && s.Stride < s.Len) {
			return false
		}
		end = s.Off + (s.Count-1)*s.Stride + s.Len
	}
	return true
}

// rig builds a fresh fabric and storage system on the shared topology.
func (b *bench) rig() (*netsim.Fabric, storage.System) {
	sp := b.sp
	var fab *netsim.Fabric
	var sys storage.System
	if sp.mira {
		fab = netsim.New(b.torus, netsim.Config{Contention: netsim.ContentionLinks, InjectRate: 2 * b.torus.TorusLinkBW})
		fab.ShareDistances(b.dc)
		sys = storage.NewGPFS(b.torus, fab, storage.GPFSConfig{LockMode: storage.LockShared})
	} else {
		fab = netsim.New(b.dfly, netsim.Config{Contention: netsim.ContentionLinks})
		fab.ShareDistances(b.dc)
		if sp.nullFS {
			sys = storage.NewNullFS()
		} else {
			sys = storage.NewLustre(b.dfly, fab, storage.LustreConfig{NumOST: sp.osts})
		}
	}
	if sp.lossRate > 0 {
		fab.SetFaults(fault.NewPlan(fault.Config{Seed: faultSeed, NetLossRate: sp.lossRate, RetransmitPenalty: sp.rtoNs}))
	}
	return fab, sys
}

// comm returns the rank's I/O group communicator.
func (b *bench) comm(c *mpi.Comm) *mpi.Comm {
	if !b.sp.subfile {
		return c
	}
	return c.Split(b.group[c.Rank()], c.Rank())
}

func openShared(g *mpi.Comm, sys storage.System, name string, opt storage.FileOptions) *storage.File {
	var f *storage.File
	if g.Rank() == 0 {
		if f = sys.Lookup(name); f == nil {
			f = sys.Create(name, opt)
		}
	}
	return g.Bcast(0, 32, f).(*storage.File)
}

// interval is the span between two consecutive barrier stamps taken by
// world rank 0: host wall-clock and virtual time. Unnamed intervals hold
// in-run checks and are never part of a metric.
type interval struct {
	name, kind   string // e.g. "core.WriteAll", "write"
	host0, host1 time.Time
	virt         int64
}

func (iv interval) host() float64 { return iv.host1.Sub(iv.host0).Seconds() }

// roundOut is everything one round produced.
type roundOut struct {
	start, end time.Time
	tune       []float64 // host seconds per search
	pick       string
	evaluated  int
	iv         []interval
	checks     []span // host spans of post-run checks

	fabric struct{ transfers, fabricMsgs, localTransfers int64 }
	store  struct{ bytes, ops int64 }
	crc    struct {
		bytes int64
		dur   time.Duration
	}

	peakHeap  uint64 // largest live heap after a session (measure mode)
	attempted int
	failed    map[string]bool // operations that failed a check, e.g. "read 9"
	failures  []string        // every failed check's message
	fp        string          // determinism fingerprint

	trace *traceAcc // per-interval recorder harvest (traced rounds only)
}

// fail records a failed check of an operation; one operation may fail
// several checks but counts once.
func (o *roundOut) fail(op, format string, args ...any) {
	if o.failed == nil {
		o.failed = map[string]bool{}
	}
	o.failed[op] = true
	o.failures = append(o.failures, op+": "+fmt.Sprintf(format, args...))
}

// sum returns the host and virtual seconds of every interval of a kind.
func (o *roundOut) sum(kind string) (host, virt float64) {
	for _, iv := range o.iv {
		if iv.kind == kind {
			host += iv.host()
			virt += float64(iv.virt) / 1e9
		}
	}
	return
}

// roundMode selects what a round observes besides its timings.
type roundMode int

const (
	// measure samples the live heap after every session (end-to-end runs).
	measure roundMode = iota
	// reference observes nothing: it runs under the CPU profile.
	reference
	// recorded runs the job under a flight recorder that records events,
	// renewed between sessions so the event buffer holds one session.
	recorded
)

// round runs the tuner searches, then one simulated job with every timed
// session, then the output checks.
func (b *bench) round(mode roundMode) *roundOut {
	sp := b.sp
	traced := mode == recorded
	// Every round starts from a collected heap, so no round inherits the
	// previous one's garbage (or its collection) into a timed phase.
	runtime.GC()
	o := &roundOut{start: time.Now()}
	fab, sys := b.rig()

	cfg, hints, fopt := sp.cfg, sp.hints, sp.fopt
	o.pick = "-"
	for i := 0; i < sp.tunes; i++ {
		o.attempted++
		t0 := time.Now()
		res, err := tune.TryAutotune(tune.Platform{Topo: b.topo(), Dist: b.dc, Sys: sys, RanksPerNode: sp.rpn},
			workload.Pattern{Name: sp.name, Ranks: b.ranks / len(b.groupBytes), Declared: sp.pattern}, sp.tuneOpt)
		o.tune = append(o.tune, time.Since(t0).Seconds())
		if err != nil {
			o.fail(fmt.Sprintf("tune %d", i), "%v", err)
			continue
		}
		pick := describe(res.Config)
		switch {
		case i == 0:
			o.pick, o.evaluated = pick, res.Evaluated
		case pick != o.pick || res.Evaluated != o.evaluated:
			o.fail(fmt.Sprintf("tune %d", i), "picked %s (%d evaluated), search 0 picked %s (%d)", pick, res.Evaluated, o.pick, o.evaluated)
		}
		if i == 0 && sp.useTuned {
			cfg, fopt, hints = res.Config, res.FileOptions, res.Hints
			if cfg.Tree == nil {
				cfg.Tree = &tree.Shape{Kind: tree.NodeStaged}
				if !cfg.IntraNodeStaging {
					cfg.Tree.Kind = tree.Flat
				}
			}
			hints.TreePlan = cfg.Tree.String()
			hints.IntraNodeStaging = cfg.Tree.Staged()
		}
	}

	ngroups := len(b.groupBytes)
	// Per-session file counters, sampled by each group's rank 0 right after
	// the session's closing stamp.
	written := make([][]int64, sp.writes)
	read := make([][]int64, sp.reads)
	mwritten := make([][]int64, sp.mpiioWrites)
	for _, s := range [][][]int64{written, read, mwritten} {
		for i := range s {
			s[i] = make([]int64, ngroups)
		}
	}
	got := make([][][]byte, b.ranks)
	if sp.payload {
		for r := range got {
			got[r] = make([][]byte, len(b.data[r]))
			for i, p := range b.data[r] {
				got[r][i] = make([]byte, len(p))
			}
		}
	}
	var readCRC uint64
	files := map[string]*storage.File{}

	mc := mpi.Config{Ranks: b.ranks, RanksPerNode: sp.rpn, Fabric: fab}
	if traced {
		o.trace = newTraceAcc()
		mc.Recorder = o.trace.fresh()
	}
	var last time.Time
	var lastVirt int64
	mark := func(c *mpi.Comm, name, kind string) {
		c.Barrier()
		if c.Rank() != 0 {
			return
		}
		now, virt := time.Now(), c.Now()
		if !last.IsZero() {
			o.iv = append(o.iv, interval{name: name, kind: kind, host0: last, host1: now, virt: virt - lastVirt})
			if traced && name != "core.Init" {
				// A session caches the recorder when it is initialized, so
				// a recorder is only replaced between sessions. The
				// harvest is tracing cost: it lands in no interval.
				o.trace.harvest(kind)
				rec := o.trace.fresh()
				c.Proc().Engine().SetRecorder(rec)
				fab.SetRecorder(rec)
				now = time.Now()
			}
		}
		last, lastVirt = now, virt
	}
	// sampleHeap runs right after a session's last stamp, while its buffers
	// are still reachable; the collection lands in an untimed interval.
	sampleHeap := func(c *mpi.Comm) {
		if mode == measure && c.Rank() == 0 {
			o.peakHeap = max(o.peakHeap, liveHeap())
		}
	}
	bad := func(op string, k, rank int, format string, args ...any) {
		o.fail(fmt.Sprintf("%s %d", op, k), "rank %d: "+format, append([]any{rank}, args...)...)
	}

	_, err := mpi.Run(mc, func(c *mpi.Comm) {
		rank := c.Rank()
		g := b.comm(c)
		gid := b.group[rank]
		decl, data := b.decl[rank], b.data[rank]
		ckpt := func(k int) string {
			if sp.payload {
				// Payload checkpoints overwrite one file: the store holds the
				// bytes, and one copy is enough to check.
				k = 0
			}
			return fmt.Sprintf("ckpt%d-g%d", k, gid)
		}

		for k := 0; k < sp.writes; k++ {
			mark(c, "", "")
			f := openShared(g, sys, ckpt(k), fopt)
			w := core.New(g, sys, f, cfg)
			err := w.InitData(decl, data)
			mark(c, "core.Init", "write")
			if err == nil {
				err = w.WriteAll()
			}
			mark(c, "core.WriteAll", "write")
			sampleHeap(c)
			if err != nil {
				bad("write", k, rank, "%v", err)
			}
			if g.Rank() == 0 {
				written[k][gid] = f.BytesWritten()
				files[f.Name] = f
			}
			if sp.payload && k == sp.writes-1 && err == nil {
				// The file is rewritten every session; its final bytes, the
				// session's checksum and the payload's must agree.
				harness(func() {
					if crc := w.DataChecksum(); crc != b.wcrc[rank] {
						bad("write", k, rank, "session checksum %#x, payload %#x", crc, b.wcrc[rank])
					}
					b.storeCheck(o, f, rank, fmt.Sprintf("write %d", k))
				})
			}
		}

		for k := 0; k < sp.reads; k++ {
			last := k == sp.reads-1
			if last {
				// Only the last read is checked byte for byte; clearing its
				// buffers first proves it filled them.
				for _, p := range got[rank] {
					clear(p)
				}
			}
			mark(c, "", "")
			f := openShared(g, sys, ckpt(sp.writes-1), fopt)
			rd := core.New(g, sys, f, cfg)
			err := rd.InitData(decl, got[rank])
			mark(c, "core.Init", "read")
			if err == nil {
				err = rd.ReadAll()
			}
			mark(c, "core.ReadAll", "read")
			sampleHeap(c)
			if err != nil {
				bad("read", k, rank, "%v", err)
			} else if sp.payload && last {
				harness(func() {
					crc := rd.DataChecksum()
					if crc != b.wcrc[rank] {
						bad("read", k, rank, "checksum %#x, written %#x", crc, b.wcrc[rank])
					}
					readCRC ^= crc
				})
			}
			if g.Rank() == 0 {
				read[k][gid] = f.BytesRead()
			}
		}

		name := fmt.Sprintf("mpiio-g%d", gid)
		for k := 0; k < sp.mpiioWrites; k++ {
			mark(c, "", "")
			fh := mpiio.Open(g, sys, name, fopt, hints)
			mark(c, "mpiio.Open", "mpiio")
			var err error
			for i, segs := range decl {
				var p []byte
				if sp.payload {
					p = data[i]
				}
				if e := fh.WriteAtAllData(segs, p); e != nil && err == nil {
					err = e
				}
				// One interval per collective call keeps a recorded round's
				// event buffer to one call's worth.
				mark(c, "mpiio.WriteAtAll", "mpiio")
			}
			sampleHeap(c)
			fh.Close()
			if err != nil {
				bad("mpiio", k, rank, "%v", err)
			}
			if g.Rank() == 0 {
				mwritten[k][gid] = fh.Storage().BytesWritten()
				files[name] = fh.Storage()
			}
			if sp.payload && k == sp.mpiioWrites-1 && err == nil {
				harness(func() { b.storeCheck(o, fh.Storage(), rank, fmt.Sprintf("mpiio %d", k)) })
			}
		}
		mark(c, "", "")
	})
	o.end = time.Now()
	o.attempted += sp.writes + sp.reads + sp.mpiioWrites
	if err != nil {
		// A failed job fails every session in it.
		for op, n := range map[string]int{"write": sp.writes, "read": sp.reads, "mpiio": sp.mpiioWrites} {
			for k := 0; k < n; k++ {
				o.fail(fmt.Sprintf("%s %d", op, k), "%v", err)
			}
		}
		return o
	}
	if traced {
		o.trace.harvest("") // whatever the recorder saw after the last stamp
	}
	o.fabric.transfers, o.fabric.fabricMsgs, o.fabric.localTransfers = fab.Transfers(), fab.FabricMessages(), fab.LocalTransfers()
	for _, f := range files {
		o.store.bytes += f.BytesWritten()
		o.store.ops += f.WriteOps()
	}

	t0 := time.Now()
	harness(func() {
		// Byte counts: every session moves exactly the declared bytes of
		// each group. Payload checkpoints share one file, so their counters
		// grow session by session.
		delta := func(what string, counts [][]int64, cumulative bool) {
			for k := range counts {
				for gid, n := range counts[k] {
					if cumulative && k > 0 {
						n -= counts[k-1][gid]
					}
					if n != b.groupBytes[gid] {
						o.fail(fmt.Sprintf("%s %d", what, k), "group %d: %d bytes, declared %d", gid, n, b.groupBytes[gid])
					}
				}
			}
		}
		delta("write", written, sp.payload)
		delta("read", read, true)
		delta("mpiio", mwritten, true)
		if sp.payload && sp.reads > 0 {
			for r := range got {
				if err := workload.VerifyData(b.decl[r], b.seed, got[r]); err != nil {
					bad("read", sp.reads-1, r, "%v", err)
				}
			}
		}
	})
	o.checks = append(o.checks, span{Name: "check", start: t0, end: time.Now()})
	o.fp = o.fingerprint(readCRC)
	return o
}

// storeCheck compares the file's stored bytes over the rank's extents with
// the payload's checksum, timing File.StoreChecksum.
func (b *bench) storeCheck(o *roundOut, f *storage.File, rank int, op string) {
	t0 := time.Now()
	crc, err := f.StoreChecksum(b.flat[rank])
	o.crc.dur += time.Since(t0)
	o.crc.bytes += storage.TotalBytes(b.flat[rank])
	switch {
	case err != nil:
		o.fail(op, "rank %d: store checksum: %v", rank, err)
	case crc != b.wcrc[rank]:
		o.fail(op, "rank %d: stored checksum %#x, payload %#x", rank, crc, b.wcrc[rank])
	}
}

// fingerprint folds every deterministic outcome of a round — virtual
// durations, message counts, the tuner's pick, checksums — into one string.
// Two rounds of one seed must agree exactly.
func (o *roundOut) fingerprint(readCRC uint64) string {
	h := fnv.New64a()
	for _, iv := range o.iv {
		fmt.Fprintf(h, "%s/%s=%d;", iv.kind, iv.name, iv.virt)
	}
	return fmt.Sprintf("%016x transfers=%d fabric=%d local=%d pick=%s crc=%#x",
		h.Sum64(), o.fabric.transfers, o.fabric.fabricMsgs, o.fabric.localTransfers, o.pick, readCRC)
}

// describe names a configuration for the tuner's determinism check.
func describe(cfg core.Config) string {
	s := fmt.Sprintf("aggr=%d buf=%d staging=%v", cfg.Aggregators, cfg.BufferSize, cfg.IntraNodeStaging)
	if cfg.Placement != nil {
		s += " placement=" + cfg.Placement.Name()
	}
	if cfg.Tree != nil {
		s += " tree=" + cfg.Tree.String()
	}
	return s
}

// traceAcc collects the flight recorder's output interval by interval.
type traceAcc struct {
	cur     *obs.Recorder
	reg     map[string]*obs.Registry // by interval kind
	phases  obs.PhaseTotals
	parks   int64 // scheduler park events
	events  int64
	dropped int64
}

func newTraceAcc() *traceAcc {
	return &traceAcc{reg: map[string]*obs.Registry{}}
}

func (t *traceAcc) fresh() *obs.Recorder {
	t.cur = obs.NewRecorder(true)
	return t.cur
}

// harvest folds a retiring recorder in: its scheduler park events, its
// metrics under the closing interval's kind, and its phase totals.
func (t *traceAcc) harvest(kind string) {
	r := t.cur
	events := r.Events()
	for _, e := range events {
		if e.Cat == "sched" && e.Name != "run" {
			t.parks++
		}
	}
	t.events += int64(len(events))
	t.dropped += r.Dropped()
	if t.reg[kind] == nil {
		t.reg[kind] = obs.NewRegistry()
	}
	t.reg[kind].MergeFrom(r.Registry())
	t.phases.Add(r.PhaseTotals())
}
