// Command perfbench is the TAPIOCA benchmark harness: it runs one workload
// in one process, checks every output, and prints the run's metrics as a
// JSON object on the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics: set-up time, host
// throughput of each I/O path, tuner search time, peak live heap and the
// simulated (virtual-time) bandwidths. With --trace 1 it runs one untraced
// reference round under a CPU profile and one round under the flight
// recorder, and reports per-layer metrics; the span tree and the CPU table
// go to standard error and, with the raw profile, to --out.
//
// See README.md in this directory for the workloads and how to read the
// numbers.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

const (
	defaultSeed = 1
	// confirmSeed is the second seed for confirming a claimed gain on inputs
	// not used while the change was written.
	confirmSeed = 20170907
	gogc        = 100 // fixed here, whatever GOGC the caller exported
	maxProcs    = 2
	setupReps   = 5 // set-up runs per end-to-end run; setup_s is their median
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name: "+strings.Join(names(), ", "))
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (payload bytes); %d confirms claims", confirmSeed))
	seconds := flag.Float64("seconds", 10, "measurement time; whole rounds run until it is used up (at least two)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans, CPU profile and report")
	flag.Parse()
	sp := specByName(*name)
	if sp == nil || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --trace 0|1 and --workload, one of:")
		for _, s := range specs {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", s.name, s.why)
		}
		return 2
	}

	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gogc)
	debug.SetMemoryLimit(math.MaxInt64)

	facts := map[string]any{
		"workload": sp.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": procs, "go": runtime.Version(), "gogc": gogc,
	}
	res := result{Metrics: map[string]metric{}}
	var c counts
	var err error
	if *trace == 0 {
		err = endToEnd(sp, *seed, *seconds, res.Metrics, facts, &c)
	} else {
		err = traced(sp, *seed, res.Metrics, facts, *out, &c)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = res.Failed == 0
	for i, f := range c.messages {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "FAIL ... %d more\n", len(c.messages)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
	}
	fj, _ := json.Marshal(facts)
	fmt.Fprintf(os.Stderr, "facts %s\n", fj)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func names() []string {
	var n []string
	for _, s := range specs {
		n = append(n, s.name)
	}
	return n
}

// counts tallies a run's checked operations: every session, search and
// round-to-round comparison is one attempt.
type counts struct {
	attempted, failed int
	messages          []string
}

func (c *counts) round(o *roundOut) {
	c.attempted += o.attempted
	c.failed += len(o.failed)
	c.messages = append(c.messages, o.failures...)
}

// same compares a round's fingerprint with the one it must reproduce.
func (c *counts) same(what string, o, want *roundOut) {
	c.attempted++
	if o.fp != want.fp {
		c.failed++
		c.messages = append(c.messages, fmt.Sprintf("%s is not deterministic: %s, want %s", what, o.fp, want.fp))
	}
}

// endToEnd sets the workload up setupReps times, then runs whole rounds for
// the given time and reports each metric's median over the rounds.
func endToEnd(sp *spec, seed uint64, seconds float64, m map[string]metric, facts map[string]any, c *counts) error {
	var setups []float64
	var b *bench
	for i := 0; i < setupReps; i++ {
		b = nil
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		nb, err := setup(sp, seed, newSpans())
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	hostFacts(b, facts)

	var outs []*roundOut
	start := time.Now()
	for {
		o := b.round(measure)
		outs = append(outs, o)
		w, _ := o.sum("write")
		r, _ := o.sum("read")
		mw, _ := o.sum("mpiio")
		fmt.Fprintf(os.Stderr, "round %d: %.2fs write %.3fs read %.3fs mpiio %.3fs tune %.3fs\n",
			len(outs)-1, o.end.Sub(o.start).Seconds(), w, r, mw, sum(o.tune))
		c.round(o)
		if len(outs) > 1 {
			c.same(fmt.Sprintf("round %d", len(outs)-1), o, outs[0])
		}
		elapsed := time.Since(start).Seconds()
		if len(outs) >= 2 && elapsed*float64(len(outs)+1)/float64(len(outs)) > seconds {
			break
		}
	}
	facts["rounds"] = len(outs)

	rate := func(kind string, reps int, host bool) float64 {
		var v []float64
		for _, o := range outs {
			h, virt := o.sum(kind)
			bytes := float64(reps) * float64(b.totalBytes)
			if host {
				v = append(v, bytes/h/1e6)
			} else {
				v = append(v, bytes/virt/1e9)
			}
		}
		return median(v)
	}
	var tune []float64
	for _, o := range outs {
		tune = append(tune, sum(o.tune)/float64(len(o.tune)))
	}
	var peak uint64
	for _, o := range outs {
		peak = max(peak, o.peakHeap)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["peak_heap_mib"] = metric{float64(peak) / (1 << 20), "MiB"}
	m["write_MBps"] = metric{rate("write", sp.writes, true), "MB/s"}
	m["read_MBps"] = metric{rate("read", sp.reads, true), "MB/s"}
	m["mpiio_write_MBps"] = metric{rate("mpiio", sp.mpiioWrites, true), "MB/s"}
	m["tune_s"] = metric{median(tune), "s"}
	m["sim_write_GBps"] = metric{rate("write", sp.writes, false), "GB/s"}
	m["sim_read_GBps"] = metric{rate("read", sp.reads, false), "GB/s"}
	m["sim_mpiio_write_GBps"] = metric{rate("mpiio", sp.mpiioWrites, false), "GB/s"}
	return nil
}

// hostFacts records the sizes that decide which cache level the byte path
// runs from.
func hostFacts(b *bench, facts map[string]any) {
	mib := func(n int64) float64 { return float64(n) / (1 << 20) }
	facts["ranks"] = b.ranks
	facts["declared_mib"] = mib(b.totalBytes)
	if b.sp.payload {
		facts["payload_mib"] = mib(b.totalBytes)
		// Payload, read-back buffers, the checkpoint file and the MPI-IO file.
		facts["working_set_mib"] = 4 * mib(b.totalBytes)
	} else {
		facts["payload_mib"] = 0.0
	}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// liveHeap forces a collection and returns the heap it marked live: the
// bytes still reachable, not whatever garbage had piled up.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeStats reads the runtime's cumulative GC counters.
func runtimeStats() (gcCPU float64, cycles, allocs uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// traced runs the per-layer measurement: set-up, a reference round under
// the CPU profile, then the same round under the flight recorder.
func traced(sp *spec, seed uint64, m map[string]metric, facts map[string]any, out string, c *counts) error {
	tr := newSpans()
	tr.begin("setup")
	b, err := setup(sp, seed, tr)
	tr.end()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	hostFacts(b, facts)

	runtime.GC()
	gc0, cyc0, alloc0 := runtimeStats()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tr.begin("round (reference, profiled)")
	ref := b.round(reference)
	tr.addRound(ref)
	tr.end()
	pprof.StopCPUProfile()
	gc1, cyc1, alloc1 := runtimeStats()

	tr.begin("round (flight recorder)")
	rec := b.round(recorded)
	tr.addRound(rec)
	tr.end()

	c.round(ref)
	c.round(rec)
	c.same("the recorded round", rec, ref)
	if rec.trace != nil {
		facts["trace_events"] = rec.trace.events
		facts["trace_events_dropped"] = rec.trace.dropped
	}
	if c.failed > 0 {
		return nil
	}

	table, err := cpuTable(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	layerMetrics(b, ref, rec, table, m)
	m["gc.cpu_s"] = metric{gc1 - gc0, "s"}
	m["gc.cycles"] = metric{float64(cyc1 - cyc0), "count"}
	m["heap.alloc_mib"] = metric{float64(alloc1-alloc0) / (1 << 20), "MiB"}

	report := tr.tree() + "\n" + renderTable(table)
	fmt.Fprint(os.Stderr, report)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", sp.name, seed))
	spansJSON, _ := json.MarshalIndent(tr.list, "", " ")
	for path, data := range map[string][]byte{
		stem + ".cpu.pprof":  prof.Bytes(),
		stem + ".spans.json": spansJSON,
		stem + ".report.txt": []byte(report),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func renderTable(table map[string]float64) string {
	var total float64
	rows := make([]string, 0, len(table))
	for k, v := range table {
		rows = append(rows, k)
		total += v
	}
	sort.Slice(rows, func(i, j int) bool { return table[rows[i]] > table[rows[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %7s\n", "cpu by pkg", "cpu_s", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.3f %6.1f%%\n", r, table[r], 100*table[r]/total)
	}
	fmt.Fprintf(&b, "%-12s %10.3f %6.1f%%\n", "total", total, 100.0)
	return b.String()
}
