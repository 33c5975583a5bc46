package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, timed from the benchmark's side of the
// boundary. Spans of one simulation or one operation share an id; a
// simulation's spans name the pass that ran them as parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span id (0 when untraced).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a span; it is safe for concurrent use.
func (t *tracer) add(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations in nanoseconds of the spans with the
// given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Profile attribution. A CPU sample's self time belongs to the layer of
// the innermost frame that lies in a layer package. Frames of helper
// packages (the functional store, the ISA, stats, the flight recorder)
// and of the Go runtime are charged to the layer that called them,
// except the runtime's allocation and collection work, which is the
// "gc" layer: the Go runtime cost the simulator causes.

// layerPackages maps a package path to its layer.
var layerPackages = map[string]string{
	"asymfence/internal/sim":            "sim",
	"asymfence/internal/cpu":            "cpu",
	"asymfence/internal/fence":          "fence",
	"asymfence/internal/cache":          "cache",
	"asymfence/internal/coherence":      "coherence",
	"asymfence/internal/noc":            "noc",
	"asymfence/internal/workloads/stm":  "workloads",
	"asymfence/internal/workloads/cilk": "workloads",
}

// profileLayers lists the layers attribute reports, in output order.
var profileLayers = []string{"sim", "cpu", "fence", "cache", "coherence", "noc", "workloads", "gc", "other"}

// gcRoots are the runtime functions whose callees are allocation or
// garbage-collection work.
var gcRoots = map[string]bool{
	"runtime.mallocgc":             true,
	"runtime.gcBgMarkWorker":       true,
	"runtime.gcAssistAlloc":        true,
	"runtime.gcStart":              true,
	"runtime.gcMarkDone":           true,
	"runtime.gcMarkTermination":    true,
	"runtime.bgsweep":              true,
	"runtime.bgscavenge":           true,
	"runtime.memclrNoHeapPointers": true,
}

// pkgOf returns the package path of a symbol such as
// "asymfence/internal/cpu.(*Core).Step".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return head
}

// layerOf attributes one sample's stack, innermost frame first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if pkg == "runtime" {
			if gcRoots[fn] {
				return "gc"
			}
			continue
		}
		if l, ok := layerPackages[pkg]; ok {
			return l
		}
		if !strings.HasPrefix(pkg, "asymfence/internal/") {
			return "other"
		}
	}
	return "other"
}

// attribute decodes a gzip-compressed pprof CPU profile and adds each
// sample's count to its layer in acc.
func attribute(data []byte, acc map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		if len(s.values) > 0 {
			acc[layerOf(stack)] += s.values[0]
		}
	}
	return nil
}

// profile holds the parts of a pprof profile attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string-table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("profile: malformed protobuf")

// pbField is one decoded protobuf field.
type pbField struct {
	num   int
	wire  int
	value uint64 // varint payload
	bytes []byte // length-delimited payload
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, errProto
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarint decodes one varint, returning its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts returns a repeated integer field's values, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile decodes the Profile message fields attribution needs:
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(raw []byte) (*profile, error) {
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range fields {
		switch f.num {
		case 2:
			sf, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sf {
				vs, err := pbInts(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4:
			lf, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, g := range lf {
				switch g.num {
				case 1:
					id = g.value
				case 4:
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							funcs = append(funcs, h.value)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5:
			ff, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
