package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxOps caps the operations one measured phase may run; the per-op
// arrays are preallocated to it so recording never allocates.
const maxOps = 1 << 17

// maxSpans caps the spans one traced phase keeps (a few per op).
const maxSpans = 1 << 18

// noSpan is the span id begin returns when tracing is off, and the
// parent of an op's root span.
const noSpan int32 = -1

// span is one timed interval of one op. Times are nanoseconds since the
// phase started.
type span struct {
	Name       string
	Op         int32
	Parent     int32
	Start, End int64
}

// recorder is the closed-loop load generator's bookkeeping for one measured
// phase: it hands out op indices until the deadline or the op limit,
// and keeps each op's latency, output digest, failure and spans. Every
// slot is written by the one goroutine that runs that op, and read only
// after the workers have been joined.
type recorder struct {
	t0       time.Time
	deadline time.Time // end of the current slice; zero: none
	limit    int       // ops to run at most
	trace    bool
	// counting marks the untimed pass that reads simulated counters;
	// workloads do their extra counter work only then.
	counting bool

	next   atomic.Int64
	cycles atomic.Uint64 // simulated cycles, summed over ops

	lat    []int64 // op latency, ns
	done   []bool
	digest [][sha256.Size]byte

	failMu sync.Mutex
	fails  map[int]string

	spans   []span
	nspans  atomic.Int32
	dropped atomic.Int64

	// active sums the time the phase's slices ran.
	active time.Duration
}

func newRecorder(limit int, trace, counting bool) *recorder {
	if limit <= 0 || limit > maxOps {
		limit = maxOps
	}
	r := &recorder{
		limit:    limit,
		trace:    trace,
		counting: counting,
		lat:      make([]int64, limit),
		done:     make([]bool, limit),
		digest:   make([][sha256.Size]byte, limit),
		fails:    map[int]string{},
	}
	if trace {
		r.spans = make([]span, maxSpans)
	}
	r.t0 = time.Now()
	return r
}

// slice runs ops of sys for d (0: until the op limit) and adds the
// time taken to the phase's active time. A phase may run in several
// slices; each continues with the next op index.
func (r *recorder) slice(sys system, d time.Duration) {
	start := time.Now()
	r.deadline = time.Time{}
	if d > 0 {
		r.deadline = start.Add(d)
	}
	sys.run(r)
	r.active += time.Since(start)
}

// stopped reports whether the phase is over.
func (r *recorder) stopped() bool {
	return !r.deadline.IsZero() && !time.Now().Before(r.deadline)
}

// claim returns the next op index, or -1 once the phase is over.
func (r *recorder) claim() int {
	if r.stopped() {
		return -1
	}
	i := int(r.next.Add(1)) - 1
	if i >= r.limit {
		return -1
	}
	return i
}

// claimBatch reserves up to n consecutive op indices [lo, hi); hi == lo
// once the phase is over.
func (r *recorder) claimBatch(n int) (lo, hi int) {
	if r.stopped() {
		return 0, 0
	}
	lo = int(r.next.Add(int64(n))) - n
	hi = lo + n
	if lo >= r.limit {
		return 0, 0
	}
	if hi > r.limit {
		hi = r.limit
	}
	return lo, hi
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id; with tracing off it only
// returns noSpan.
func (r *recorder) begin(name string, op int, parent int32) int32 {
	if !r.trace {
		return noSpan
	}
	id := r.nspans.Add(1) - 1
	if int(id) >= len(r.spans) {
		r.dropped.Add(1)
		return noSpan
	}
	r.spans[id] = span{Name: name, Op: int32(op), Parent: parent, Start: r.now()}
	return id
}

func (r *recorder) end(id int32) {
	if id >= 0 {
		r.spans[id].End = r.now()
	}
}

// spanAt records a span whose interval the caller timed with now.
func (r *recorder) spanAt(name string, op int, parent int32, start, end int64) {
	if id := r.begin(name, op, parent); id >= 0 {
		r.spans[id].Start, r.spans[id].End = start, end
	}
}

// op runs one operation: fn returns the digest of the op's simulated
// outputs, or the reason the op failed. The op's latency covers fn
// only; its root span is named "op".
func (r *recorder) op(i int, fn func(root int32) ([sha256.Size]byte, error)) {
	root := r.begin("op", i, noSpan)
	start := r.now()
	d, err := fn(root)
	r.lat[i] = r.now() - start
	r.end(root)
	r.done[i] = true
	r.digest[i] = d
	if err != nil {
		r.fail(i, err)
	}
}

func (r *recorder) fail(i int, err error) {
	r.failMu.Lock()
	if _, ok := r.fails[i]; !ok {
		r.fails[i] = err.Error()
	}
	r.failMu.Unlock()
}

// latenciesMs returns the latency of the given ops, in ms.
func (r *recorder) latenciesMs(ops []int) []float64 {
	out := make([]float64, len(ops))
	for k, i := range ops {
		out[k] = float64(r.lat[i]) / 1e6
	}
	return out
}

// doneOps returns the index of every op that ran.
func (r *recorder) doneOps() []int {
	var out []int
	for i, d := range r.done {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// figures returns the phase's end-to-end figures: completed ops per
// second of active time, and the distribution of every completed op's
// latency in ms. Each op counts with its own time, so a change that
// slows only some ops (a cold path, a periodic stall) moves them.
func (r *recorder) figures() (opsPerS float64, latMs summary) {
	ops := r.doneOps()
	if len(ops) == 0 || r.active <= 0 {
		return 0, summary{}
	}
	return float64(len(ops)) / r.active.Seconds(), summarize(r.latenciesMs(ops))
}

// recordedSpans returns the spans the phase kept.
func (r *recorder) recordedSpans() []span {
	n := int(r.nspans.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// spanMs returns the durations of every span with the given name, ms.
func (r *recorder) spanMs(name string) []float64 {
	var out []float64
	for _, s := range r.recordedSpans() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for id, s := range r.recordedSpans() {
		err := enc.Encode(struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Op      int32  `json:"op"`
			Parent  int32  `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{id, s.Name, s.Op, s.Parent, s.Start, s.End})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// digester hashes an op's simulated outputs into its golden line.
type digester struct {
	buf []byte
}

func (d *digester) u64(vs ...uint64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digester) sum() [sha256.Size]byte {
	h := sha256.Sum256(d.buf)
	d.buf = d.buf[:0]
	return h
}
