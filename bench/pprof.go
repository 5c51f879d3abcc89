package main

// A minimal reader for the gzip-compressed protobuf CPU profiles
// runtime/pprof writes. It decodes only what attribution needs —
// samples, locations with their inlined lines, functions, and the
// string table — so the benchmark reads the host time of the
// simulator's layers without a module dependency on a pprof library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profFunc is one function of a profile.
type profFunc struct {
	Name string // fully qualified, e.g. deaduops/internal/cpu.(*CPU).Run
	File string // source path
}

// profSample is one CPU sample: its stack, innermost frame first
// (inlined frames expanded), and its weight in CPU nanoseconds.
type profSample struct {
	Stack []profFunc
	Nanos int64
}

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	Samples []profSample
}

// pbField is one decoded protobuf field: varints in num, length-
// delimited payloads in data.
type pbField struct {
	tag  int
	wire int
	num  uint64
	data []byte
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: truncated varint")
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.num, n, err = readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("pprof: truncated field")
			}
			f.data, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, accepting both the
// packed and the one-value-per-field encoding (runtime/pprof uses each,
// depending on the list length).
func (f pbField) varints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	if f.wire != 2 {
		return nil, fmt.Errorf("pprof: field %d: wire type %d is not an integer list", f.tag, f.wire)
	}
	for b := f.data; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a runtime/pprof CPU profile. The last sample
// value is taken as the weight: for CPU profiles that is CPU time in
// nanoseconds.
func parseProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]rawFunc{}
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	for _, f := range fields {
		switch f.tag {
		case 2: // sample
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range sub {
				switch sf.tag {
				case 1:
					s.locs, err = sf.varints(s.locs)
				case 2:
					s.values, err = sf.varints(s.values)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, sf := range sub {
				switch sf.tag {
				case 1:
					id = sf.num
				case 4: // line
					lf, err := pbFields(sf.data)
					if err != nil {
						return nil, err
					}
					for _, l := range lf {
						if l.tag == 1 {
							fns = append(fns, l.num)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // function
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fn rawFunc
			for _, sf := range sub {
				switch sf.tag {
				case 1:
					id = sf.num
				case 2:
					fn.name = sf.num
				case 4:
					fn.file = sf.num
				}
			}
			funcs[id] = fn
		case 6: // string table
			strs = append(strs, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{Nanos: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				ps.Stack = append(ps.Stack, profFunc{Name: str(fn.name), File: str(fn.file)})
			}
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

// funcPackage returns the import path of a fully qualified Go function
// name: "net/http.(*conn).serve" → "net/http". Type arguments may
// themselves contain slashes and dots, so they are cut off first.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// repoModule is the import-path prefix of the repository's packages.
const repoModule = "deaduops/"

// runtimeGC is the bucket for samples whose whole stack is runtime
// code: garbage collection, scheduling, and the profiler itself.
const runtimeGC = "runtime.gc"

// isRuntimeFrame reports whether a package is charged to its caller:
// the Go runtime, the standard library's internal packages (including
// nested ones such as crypto/internal/...), sync and syscall. Charging
// their time to the code that called them is what turns an allocation-
// or hashing-heavy profile into a statement about which layer of the
// program caused the cost.
func isRuntimeFrame(fn profFunc) bool {
	if !strings.Contains(fn.Name, ".") {
		return true // an assembly stub such as gcWriteBarrier
	}
	pkg := funcPackage(fn.Name)
	if strings.HasPrefix(pkg, repoModule) {
		return false
	}
	if strings.HasPrefix(pkg, "internal/") || strings.Contains(pkg, "/internal/") {
		return true
	}
	for _, p := range []string{"runtime", "sync", "syscall"} {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// staticlintPhases maps staticlint source files to analysis phases.
var staticlintPhases = map[string]string{
	"cfg.go":               "cfg",
	"callgraph.go":         "cfg",
	"resolve.go":           "resolve",
	"summary.go":           "summary",
	"taint.go":             "taint",
	"checkers.go":          "checkers",
	"checkers_frontend.go": "checkers",
	"gadget.go":            "checkers",
	"quantify.go":          "quantify",
	"receiver.go":          "receiver",
	"cache.go":             "cache",
	"staticlint.go":        "report",
	"report.go":            "report",
}

// layerOf names the bucket one frame is charged to. Repository
// packages are named by their last path element (staticlint by the
// phase its source file implements), the benchmark's own code is
// "bench", and other standard-library packages keep their import path
// with "/" spelled "_".
func layerOf(fn profFunc) string {
	pkg := funcPackage(fn.Name)
	switch {
	case pkg == "main":
		return "bench"
	case pkg == repoModule+"internal/staticlint":
		if ph, ok := staticlintPhases[path.Base(fn.File)]; ok {
			return "staticlint." + ph
		}
		return "staticlint.report"
	case strings.HasPrefix(pkg, repoModule):
		return path.Base(pkg)
	}
	return strings.ReplaceAll(pkg, "/", "_")
}

// attribution is a profile reduced to host time per layer and
// cumulative time per function.
type attribution struct {
	TotalNanos int64
	// Layer charges each sample to its innermost frame outside the
	// runtime (see isRuntimeFrame).
	Layer map[string]int64
	// Cum counts, per function, the samples that have it anywhere on
	// the stack.
	Cum map[string]int64
}

func attribute(p *cpuProfile) attribution {
	a := attribution{Layer: map[string]int64{}, Cum: map[string]int64{}}
	seen := map[string]bool{}
	for _, s := range p.Samples {
		a.TotalNanos += s.Nanos
		layer := runtimeGC
		for _, fn := range s.Stack {
			if !isRuntimeFrame(fn) {
				layer = layerOf(fn)
				break
			}
		}
		a.Layer[layer] += s.Nanos
		clear(seen)
		for _, fn := range s.Stack {
			if !seen[fn.Name] {
				seen[fn.Name] = true
				a.Cum[fn.Name] += s.Nanos
			}
		}
	}
	return a
}

// add merges b into a.
func (a *attribution) add(b attribution) {
	if a.Layer == nil {
		a.Layer, a.Cum = map[string]int64{}, map[string]int64{}
	}
	a.TotalNanos += b.TotalNanos
	for k, v := range b.Layer {
		a.Layer[k] += v
	}
	for k, v := range b.Cum {
		a.Cum[k] += v
	}
}

// share returns ns as a share of the profile's total.
func (a attribution) share(ns int64) float64 {
	if a.TotalNanos == 0 {
		return 0
	}
	return float64(ns) / float64(a.TotalNanos)
}

// programShare returns ns as a share of the time spent running the
// program rather than the runtime's own goroutines (garbage-collection
// workers, the scheduler): the time the load goroutines' spans can
// cover. Background collection takes the same cores, so it lengthens
// spans without appearing in the functions they wrap.
func (a attribution) programShare(ns int64) float64 {
	program := a.TotalNanos - a.Layer[runtimeGC]
	if program <= 0 {
		return 0
	}
	return float64(ns) / float64(program)
}

// readProfileBytes decodes a profile held in memory.
func readProfileBytes(b []byte) (attribution, error) {
	p, err := parseProfile(bytes.NewReader(b))
	if err != nil {
		return attribution{}, err
	}
	return attribute(p), nil
}
