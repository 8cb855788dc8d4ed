// Package obs is the runtime's observability layer: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight phase spans feeding per-phase wall-time
// histograms and a JSONL event log, and an opt-in HTTP endpoint serving
// Prometheus-text /metrics, a /state JSON snapshot, /healthz, and pprof.
//
// Everything is zero-value-off: a nil *Registry returns nil handles, and
// every handle method on a nil receiver is a no-op, so instrumented code
// pays only a nil check when observability is not configured. Hot-path
// updates on live handles are allocation-free (pre-registered handles,
// atomics, no map lookups per observation — proven by the package's
// allocs/op benchmarks).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to a metric at
// registration time (e.g. rank="3"). Hot paths never format labels: they
// are rendered once, when the handle is created.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing int64. The nil counter discards
// updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. The nil gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// value returns the current value (0 on the nil gauge).
func (g *Gauge) value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// semantics: bucket i counts observations <= bounds[i], plus an implicit
// +Inf bucket. The nil histogram discards observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one value. Allocation-free: a binary search over the
// bounds plus three atomic updates.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on the nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on the nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets are the default bounds (seconds) for phase wall-time
// histograms: 1µs to 10s, roughly half-decade steps.
func DurationBuckets() []float64 {
	return []float64{
		1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
		1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
	}
}

// instance is one label-set incarnation of a metric family.
type instance struct {
	labels string // pre-rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one exposition family: a name, a type, and its instances.
type family struct {
	name, help, typ string
	insts           []*instance
	byLabels        map[string]*instance
}

// Registry holds metric families and renders the Prometheus text
// exposition. All methods are safe for concurrent use; methods on the nil
// registry return nil handles, which discard updates.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register finds or creates the (family, labels) instance. Registration is
// idempotent: asking for the same name and labels returns the same handle.
// Callers must hold r.mu — instance fields are written under it, and
// WritePrometheus reads them under it.
func (r *Registry) register(name, help, typ string, labels []Label) *instance {
	ls := renderLabels(labels)
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: map[string]*instance{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	inst := f.byLabels[ls]
	if inst == nil {
		inst = &instance{labels: ls}
		f.byLabels[ls] = inst
		f.insts = append(f.insts, inst)
	}
	return inst
}

// Counter registers (or finds) a counter. Nil registry returns nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.register(name, help, "counter", labels)
	if inst.c == nil {
		inst.c = &Counter{}
	}
	return inst.c
}

// Gauge registers (or finds) a gauge. Nil registry returns nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.register(name, help, "gauge", labels)
	if inst.g == nil {
		inst.g = &Gauge{}
	}
	return inst.g
}

// Histogram registers (or finds) a fixed-bucket histogram; bounds must be
// sorted ascending. Nil registry returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.register(name, help, "histogram", labels)
	if inst.h == nil {
		b := append([]float64(nil), bounds...)
		inst.h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}
	return inst.h
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and instances by label
// set, so output is deterministic. Nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		insts := append([]*instance(nil), f.insts...)
		sort.Slice(insts, func(i, j int) bool { return insts[i].labels < insts[j].labels })
		for _, inst := range insts {
			switch {
			case inst.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, inst.labels, inst.c.Value())
			case inst.g != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, inst.labels, formatFloat(inst.g.value()))
			case inst.h != nil:
				writeHistogram(bw, f.name, inst.labels, inst.h)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram instance with cumulative buckets.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, formatFloat(ub)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// withLE merges an le="..." pair into a rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// renderLabels renders a sorted, escaped label set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes backslash, quote and newline per the text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
