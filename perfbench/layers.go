package main

import (
	"tapioca/internal/fault"
	"tapioca/internal/obs"
)

// layerMetrics derives the per-layer metrics of a traced run. CPU seconds
// come from the reference round's profile table, host times from its
// barrier-to-barrier intervals, and counts from the recorded round, which
// repeats the reference round's simulation exactly.
func layerMetrics(b *bench, ref, rec *roundOut, table map[string]float64, m map[string]metric) {
	sp := b.sp
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hostOf := func(name string) float64 {
		var s float64
		for _, iv := range ref.iv {
			if iv.name == name {
				s += iv.host()
			}
		}
		return s
	}
	for _, pkg := range []string{"sim", "runtime", "mpi", "mpiio", "netsim", "core", "cost", "tree", "tune", "dataplane", "storage", "workload"} {
		set(pkg+".cpu_s", table[pkg], "s")
	}

	parks := float64(rec.trace.parks)
	set("sim.parks", parks, "count")
	set("sim.ns_per_park", per(table["sim"]*1e9, parks), "ns")

	set("mpiio.open_s", hostOf("mpiio.Open"), "s")
	set("mpiio.write_s", hostOf("mpiio.WriteAtAll"), "s")

	transfers := float64(ref.fabric.transfers)
	set("netsim.transfers", transfers, "count")
	set("netsim.fabric_messages", float64(ref.fabric.fabricMsgs), "count")
	set("netsim.local_transfers", float64(ref.fabric.localTransfers), "count")
	set("netsim.ns_per_transfer", per(table["netsim"]*1e9, transfers), "ns")
	var retransmits float64
	for _, reg := range rec.trace.reg {
		retransmits += float64(reg.Counter(fault.MetricNetRetransmits).Value())
	}
	set("fault.retransmits_per_message", per(retransmits, transfers), "ratio")

	writes := rec.trace.reg["write"]
	if writes == nil {
		writes = obs.NewRegistry()
	}
	set("core.init_s", hostOf("core.Init"), "s")
	set("core.write_s", hostOf("core.WriteAll"), "s")
	set("core.read_s", hostOf("core.ReadAll"), "s")
	set("core.rounds", float64(writes.Counter("tapioca.rounds").Value()), "count")
	declared := float64(sp.writes) * float64(b.totalBytes)
	set("core.bytes_put_per_declared", per(float64(writes.Counter("tapioca.bytes_put").Value()), declared), "ratio")
	phases := rec.trace.phases
	set("core.phase.aggregation_vs", phases.Seconds(obs.PhaseAggregation), "s")
	set("core.phase.exchange_vs", phases.Seconds(obs.PhaseExchange), "s")
	set("core.phase.storage_vs", phases.Seconds(obs.PhaseStorage), "s")

	set("tree.levels", writes.Gauge("tapioca.tree.levels").Value(), "count")
	set("tree.fanin", writes.Gauge("tapioca.tree.fanin").Value(), "count")
	search := median(ref.tune)
	set("tune.search_s", search, "s")
	set("tune.evaluated", float64(ref.evaluated), "count")
	set("tune.ms_per_candidate", per(search*1e3, float64(ref.evaluated)), "ms")

	set("storage.bytes_per_write_op", per(float64(ref.store.bytes), float64(ref.store.ops)), "B")
	set("storage.checksum_MBps", per(float64(ref.crc.bytes)/1e6, ref.crc.dur.Seconds()), "MB/s")

	set("obs.overhead_s", rec.end.Sub(rec.start).Seconds()-ref.end.Sub(ref.start).Seconds(), "s")
}
