package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark ends. Spans nest by
// call order, so it is used from one goroutine only: every span wraps a
// call made from the benchmark's main goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].dur()
}

// durations lists the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var d []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.dur())
		}
	}
	return d
}

// selfTime is a span name's total and self time: self is the span's
// duration minus the part of it its child spans cover.
type selfTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (t *tracer) selfTimes() map[string]selfTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]selfTime)
	for i, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - child[i]
		out[s.Name] = st
	}
	return out
}

// writeFile writes every span, the per-name self times and the CPU
// profile's self samples per function as one JSON document.
func (t *tracer) writeFile(path string, cpuSelf map[string]int64) error {
	doc := struct {
		Spans   []span              `json:"spans"`
		Self    map[string]selfTime `json:"self"`
		CPUSelf map[string]int64    `json:"cpu_self_samples"`
	}{t.spans, t.selfTimes(), cpuSelf}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile[T ~int64 | ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + T((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func median[T ~int64 | ~float64](xs []T) T { return quantile(xs, 0.5) }

// cpuGroups are the packages the traced run reports CPU shares for;
// everything else lands in "other".
var cpuGroups = []string{"des", "gcn", "radio", "wire", "core", "attacker", "channel", "mac", "runtime"}

// profiler collects a CPU profile around the traced part of a run.
type profiler struct {
	buf bytes.Buffer
	// self is the decoded profile's self (leaf-frame) samples per
	// function, set by shares.
	self map[string]int64
}

func (p *profiler) start() error {
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

func (p *profiler) stop() { pprof.StopCPUProfile() }

// shares charges every profile sample to a package group and returns
// each group's share with the total sample count. A sample belongs to its
// leaf frame's package, except that a standard-library frame outside the
// runtime (math, sort, encoding/binary, …) is charged to the nearest
// caller that is repository or runtime code: the layer that asked for
// the work.
func (p *profiler) shares() (map[string]float64, int64, error) {
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	groups := make(map[string]float64, len(cpuGroups)+1)
	for _, g := range cpuGroups {
		groups[g] = 0
	}
	groups["other"] = 0
	p.self = make(map[string]int64)
	var total int64
	for _, s := range stacks {
		total += s.count
		groups[stackGroup(s.funcs)] += float64(s.count)
		p.self[s.funcs[0]] += s.count
	}
	if total > 0 {
		for g := range groups {
			groups[g] /= float64(total)
		}
	}
	return groups, total, nil
}

// stackGroup walks a stack from the leaf up to the first frame that
// frameGroup attributes.
func stackGroup(funcs []string) string {
	for _, fn := range funcs {
		if g, ok := frameGroup(fn); ok {
			return g
		}
	}
	return "other"
}

// frameGroup maps a fully qualified function name such as
// "slpdas/internal/gcn.(*Engine).stimulate" to its cpuGroups entry. ok is
// false for standard-library code outside the runtime, whose samples
// belong to its caller.
func frameGroup(fn string) (group string, ok bool) {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime", true
	case strings.HasPrefix(fn, "slpdas/internal/"):
		pkg := strings.TrimPrefix(fn, "slpdas/internal/")
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		for _, g := range cpuGroups {
			if pkg == g {
				return g, true
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "slpdas/") || strings.HasPrefix(fn, "main."):
		return "other", true
	}
	return "", false
}

// stack is one profile sample: its frames' functions from the leaf (the
// innermost inlined function at the sampled address) outwards, and its
// sample count.
type stack struct {
	funcs []string
	count int64
}

// decodeProfile decodes a gzipped pprof CPU profile into its sample
// stacks. It reads only the fields it needs from the profile.proto wire
// format.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location ID → function IDs, innermost first
		funcName = map[uint64]int64{}    // function ID → string index
		strs     []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line, innermost inlined call first
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "?"
				if idx, ok := funcName[fn]; ok && idx >= 0 && int(idx) < len(strs) {
					name = strs[idx]
				}
				funcs = append(funcs, name)
			}
		}
		if len(funcs) > 0 && s.count > 0 {
			out = append(out, stack{funcs: funcs, count: s.count})
		}
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether it
// arrived unpacked (v) or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
