package metrics

import (
	"fmt"
	"io"
	"iter"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// PrometheusContentType is the content type of the text exposition
// format WriteRecorder emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Kind says how a registry series or family accumulates. A counter only
// grows: a scalar counter's exposition name gains `_total`, and the
// flight recorder keeps its last value when it downsamples and scores
// its rate. A gauge is an instantaneous reading. A histogram (families
// only) exports `_bucket`/`_sum`/`_count` per cell.
type Kind uint8

const (
	KindGauge Kind = iota
	KindCounter
	KindHistogram
)

// String returns the Prometheus TYPE word.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	}
	return "gauge"
}

// Series is one scalar series of a recorder's registry, the single list
// both /v1/metrics and the flight recorder walk. It is exported as
// sea_<Name> (sea_<Name>_total for a counter) and recorded as <Name>.
type Series struct {
	Name string
	Help string
	Kind Kind
	// Read samples the current value; it must be cheap, safe to call
	// concurrently and allocation-free (the flight recorder calls it every
	// tick).
	Read func() float64
	// Watch arms the flight recorder's anomaly detector on the series.
	Watch bool
}

// ExpoName is the series' family name on /v1/metrics.
func (s Series) ExpoName() string {
	if s.Kind == KindCounter {
		return "sea_" + s.Name + "_total"
	}
	return "sea_" + s.Name
}

// Family is one labelled family of a recorder's registry: a set of
// cells told apart by their label values. Only /v1/metrics walks it.
type Family struct {
	// Name is the exposition name, as written.
	Name   string
	Help   string
	Kind   Kind
	Labels []string
	// Buckets lays out a histogram family's exposition.
	Buckets Buckets
	// Cells yields the family's cells in a stable order (a cell table
	// walks in ascending order of label values); a histogram cell with
	// no samples is not written.
	Cells iter.Seq[Cell]
}

// Cell is one labelled cell of a family: its label values (in the
// family's Labels order) and its value, or its snapshot for a
// histogram family.
type Cell struct {
	Values []string
	Value  float64
	Hist   HistSnapshot
}

// Buckets is a histogram family's exposition layout: cumulative `le`
// bounds doubling from 2^MinOctave to 2^MaxOctave raw units, each
// multiplied by Scale.
type Buckets struct {
	MinOctave, MaxOctave int
	Scale                float64
}

var (
	// latencyBuckets: 2^10 ns (~1us) to 2^34 ns (~17s), in seconds.
	latencyBuckets = Buckets{10, 34, 1e-9}
	// errorBuckets: 2^16 err-units (~6.6e-5 relative) to 2^36 (~69).
	errorBuckets = Buckets{16, 36, 1 / ErrScale}
)

// registry is a recorder's two lists. Both grow at wiring time only
// and keep the first entry of a name, so two schedulers over one pool
// export one queue-depth series. The scalar list is read through an
// atomic pointer so the flight recorder's per-tick walk never locks.
type registry struct {
	mu       sync.Mutex
	series   atomic.Pointer[[]Series]
	families []Family
}

// Register adds s to the scalar registry, unless a series of that name
// is there already.
func (r *ServeRecorder) Register(s Series) {
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	old := r.Series()
	for _, have := range old {
		if have.Name == s.Name {
			return
		}
	}
	next := append(slices.Clip(old), s)
	r.reg.series.Store(&next)
}

// RegisterFamily adds f to the labelled registry, unless a family of
// that name is there already.
func (r *ServeRecorder) RegisterFamily(f Family) {
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	for _, have := range r.reg.families {
		if have.Name == f.Name {
			return
		}
	}
	r.reg.families = append(r.reg.families, f)
}

// Series returns the scalar registry in registration order. The slice is
// shared: callers must not modify it.
func (r *ServeRecorder) Series() []Series {
	if p := r.reg.series.Load(); p != nil {
		return *p
	}
	return nil
}

// families returns the labelled registry in registration order.
func (r *ServeRecorder) families() []Family {
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	return slices.Clip(r.reg.families)
}

// WriteRecorder renders the recorder's Prometheus exposition: every
// scalar series of the registry, then every labelled family, each under
// one HELP/TYPE header. A family with no cells to write has no header.
// Serving front-ends mount it on GET /v1/metrics so one scrape config
// covers every member alike.
func (r *ServeRecorder) WriteRecorder(w io.Writer) error {
	p := &printer{w: w}
	for _, s := range r.Series() {
		p.header(s.ExpoName(), s.Help, s.Kind)
		p.printf("%s %g\n", s.ExpoName(), s.Read())
	}
	for _, f := range r.families() {
		header := false
		for c := range f.Cells {
			if p.err != nil {
				return p.err
			}
			if f.Kind == KindHistogram && c.Hist.Count == 0 {
				continue
			}
			if !header {
				p.header(f.Name, f.Help, f.Kind)
				header = true
			}
			pairs := make([]string, len(f.Labels))
			for i, name := range f.Labels {
				pairs[i] = Label(name, c.Values[i])
			}
			labels := strings.Join(pairs, ",")
			if f.Kind != KindHistogram {
				p.printf("%s{%s} %g\n", f.Name, labels, c.Value)
				continue
			}
			b := f.Buckets
			for _, pb := range c.Hist.PromBuckets(b.MinOctave, b.MaxOctave, b.Scale) {
				p.printf("%s_bucket{%s,le=\"%g\"} %d\n", f.Name, labels, pb.LE, pb.Count)
			}
			p.printf("%s_bucket{%s,le=\"+Inf\"} %d\n", f.Name, labels, c.Hist.Count)
			p.printf("%s_sum{%s} %g\n", f.Name, labels, float64(c.Hist.Sum)*b.Scale)
			p.printf("%s_count{%s} %d\n", f.Name, labels, c.Hist.Count)
		}
	}
	return p.err
}

// printer writes until the first error and keeps it.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *printer) header(name, help string, kind Kind) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// cellTable holds the cells of labelled families: one T per key, made
// on first use and kept for the recorder's life. Past max keys (0: no
// bound) a new key shares the cell of the overflow key, so a
// cardinality bug cannot grow metrics memory without bound.
type cellTable[K comparable, T any] struct {
	max      int
	overflow K
	// values gives a key's label values; cells walk in their order.
	values func(K) []string

	mu sync.RWMutex
	m  map[K]*T
}

// get returns the cell for k, making it on first use.
func (t *cellTable[K, T]) get(k K) *T {
	t.mu.RLock()
	c := t.m[k]
	t.mu.RUnlock()
	if c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.m[k]; c != nil {
		return c
	}
	if t.m == nil {
		t.m = make(map[K]*T)
	}
	if t.max > 0 && len(t.m) >= t.max {
		k = t.overflow
		if c = t.m[k]; c != nil {
			return c
		}
	}
	c = new(T)
	t.m[k] = c
	return c
}

// all yields every cell in ascending order of label values.
func (t *cellTable[K, T]) all() iter.Seq2[K, *T] {
	return func(yield func(K, *T) bool) {
		type entry struct {
			k      K
			values []string
			c      *T
		}
		t.mu.RLock()
		cells := make([]entry, 0, len(t.m))
		for k, c := range t.m {
			cells = append(cells, entry{k, t.values(k), c})
		}
		t.mu.RUnlock()
		slices.SortFunc(cells, func(a, b entry) int { return slices.Compare(a.values, b.values) })
		for _, e := range cells {
			if !yield(e.k, e.c) {
				return
			}
		}
	}
}

// cellsOf is a family's Cells over t: read gives each cell's value or
// snapshot, t its label values.
func cellsOf[K comparable, T any](t *cellTable[K, T], read func(*T) Cell) iter.Seq[Cell] {
	return func(yield func(Cell) bool) {
		for k, c := range t.all() {
			cell := read(c)
			cell.Values = t.values(k)
			if !yield(cell) {
				return
			}
		}
	}
}
