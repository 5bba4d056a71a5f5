package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one host-side interval the harness records around a call into a
// layer. Start and End are seconds since the run began; Parent indexes the
// enclosing span (-1 for the root).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`

	start, end time.Time
}

// spans keeps the run's span tree in memory until the run ends.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) parent() int {
	if len(s.stack) == 0 {
		return -1
	}
	return s.stack[len(s.stack)-1]
}

// add records a finished span under the innermost open one.
func (s *spans) add(name string, start, end time.Time) int {
	s.list = append(s.list, span{Name: name, Parent: s.parent(),
		Start: start.Sub(s.t0).Seconds(), End: end.Sub(s.t0).Seconds(), start: start, end: end})
	return len(s.list) - 1
}

// begin opens a span; end closes it. Spans opened in between nest under it.
func (s *spans) begin(name string) {
	now := time.Now()
	s.stack = append(s.stack, s.add(name, now, now))
}

func (s *spans) end() {
	i := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	now := time.Now()
	s.list[i].end, s.list[i].End = now, now.Sub(s.t0).Seconds()
}

// addRound records a round's tuner searches, its simulated job (one child per
// barrier-to-barrier interval) and its checks under the open span.
func (s *spans) addRound(o *roundOut) {
	t := o.start
	for _, d := range o.tune {
		end := t.Add(time.Duration(d * 1e9))
		s.add("tune.Autotune", t, end)
		t = end
	}
	if len(o.iv) == 0 {
		return
	}
	run := s.add("mpi.Run", o.iv[0].host0, o.iv[len(o.iv)-1].host1)
	s.stack = append(s.stack, run)
	for _, iv := range o.iv {
		name := iv.name
		if name == "" {
			name = "stamps+in-run checks"
		}
		s.add(name, iv.host0, iv.host1)
	}
	s.stack = s.stack[:len(s.stack)-1]
	for _, c := range o.checks {
		s.add(c.Name, c.start, c.end)
	}
}

// tree renders the span tree aggregated by path: calls, total and self time
// (a span's duration minus the part its children cover).
func (s *spans) tree() string {
	type agg struct {
		path        string
		depth       int
		calls       int
		total, self float64
	}
	paths := make([]string, len(s.list))
	depth := make([]int, len(s.list))
	child := make([]float64, len(s.list))
	for i, sp := range s.list {
		paths[i] = sp.Name
		if sp.Parent >= 0 {
			paths[i] = paths[sp.Parent] + "/" + sp.Name
			depth[i] = depth[sp.Parent] + 1
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	byPath := map[string]*agg{}
	var order []*agg
	for i, sp := range s.list {
		a := byPath[paths[i]]
		if a == nil {
			a = &agg{path: paths[i], depth: depth[i]}
			byPath[paths[i]] = a
			order = append(order, a)
		}
		a.calls++
		a.total += sp.End - sp.Start
		a.self += sp.End - sp.Start - child[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].path < order[j].path })
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %6s %10s %10s\n", "host span", "calls", "total_s", "self_s")
	for _, a := range order {
		name := a.path[strings.LastIndex(a.path, "/")+1:]
		fmt.Fprintf(&b, "%-52s %6d %10.4f %10.4f\n", strings.Repeat("  ", a.depth)+name, a.calls, a.total, a.self)
	}
	return b.String()
}

// harnessLabel marks CPU samples spent in the harness itself — input
// generation and output checks — so the profile table keeps them apart
// from the layers they call into.
const harnessLabel = "perfbench"

func harness(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(harnessLabel, "harness"), func(context.Context) { fn() })
}

// cpuTable folds a runtime/pprof CPU profile by the innermost
// tapioca/internal/<pkg> frame of each sample. Samples under the harness
// label count as "workload"; samples with no package frame count as "gc"
// (background collector work), "perfbench" (harness code) or "runtime"
// (scheduler and the rest). The rows add up to the whole profile.
func cpuTable(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		types    int
		samples  [][]byte
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = pbFields(raw, func(f pbField) {
		switch f.num {
		case 1: // sample_type
			types++
		case 2: // sample
			samples = append(samples, f.msg)
		case 4: // location
			var id uint64
			var funcs []uint64
			pbFields(f.msg, func(l pbField) {
				switch l.num {
				case 1:
					id = l.v
				case 4: // line
					pbFields(l.msg, func(ln pbField) {
						if ln.num == 1 {
							funcs = append(funcs, ln.v)
						}
					})
				}
			})
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			pbFields(f.msg, func(fn pbField) {
				switch fn.num {
				case 1:
					id = fn.v
				case 2:
					name = fn.v
				}
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.msg))
		}
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	frames := func(loc uint64) []string {
		var names []string
		for _, fid := range locFuncs[loc] {
			names = append(names, str(funcName[fid]))
		}
		return names
	}
	table := map[string]float64{}
	for _, msg := range samples {
		var locs, vals []uint64
		labelled := false
		err := pbFields(msg, func(f pbField) {
			switch f.num {
			case 1:
				locs = append(locs, f.ints()...)
			case 2:
				vals = append(vals, f.ints()...)
			case 3:
				pbFields(f.msg, func(l pbField) {
					if l.num == 1 && str(l.v) == harnessLabel {
						labelled = true
					}
				})
			}
		})
		if err != nil {
			return nil, err
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		if types == 0 || len(vals) != types {
			return nil, errors.New("profile sample without a cpu value")
		}
		row := "workload"
		if !labelled {
			row = classify(locs, frames)
		}
		table[row] += float64(vals[types-1]) / 1e9
	}
	return table, nil
}

// classify names the row of one stack, leaf location first.
func classify(locs []uint64, frames func(uint64) []string) string {
	row := ""
	for _, loc := range locs {
		for _, fn := range frames(loc) {
			if rest, ok := strings.CutPrefix(fn, "tapioca/internal/"); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					rest = rest[:i]
				}
				return rest
			}
			switch {
			case row != "":
			case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
				strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.GC"):
				row = "gc"
			case strings.HasPrefix(fn, "main."):
				row = "perfbench"
			}
		}
	}
	if row == "" {
		row = "runtime"
	}
	return row
}

// pbField is one protobuf field: a varint value, or the bytes of a
// length-delimited one (a nested message, a string or packed numbers).
type pbField struct {
	num   int
	v     uint64
	msg   []byte
	bytes bool
}

// ints returns a numeric repeated field's values whether it was encoded
// packed or not (the pprof encoder packs only runs longer than two).
func (f pbField) ints() []uint64 {
	if !f.bytes {
		return []uint64{f.v}
	}
	var out []uint64
	for b := f.msg; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// pbFields walks the fields of one protobuf message.
func pbFields(b []byte, fn func(pbField)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			f.msg, f.bytes = b[n:n+int(l)], true
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
			continue
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		fn(f)
	}
	return nil
}
