package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// noParent marks a root span.
const noParent = -1

// Span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; Parent indexes the tracer's span slice.
type Span struct {
	Name       int32
	Parent     int32
	Run        int32
	Start, End int64
}

// Tracer records spans in memory and writes them out when the benchmark
// ends. The goroutine that drives the engine (the replay loop, or the serve
// ticker) nests spans implicitly through Begin/End; other goroutines record
// self-contained root spans with Record. Untraced runs install no wrapper
// and so never touch a Tracer.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	names  []string
	byName map[string]int32
	spans  []Span
	stack  []int32
	run    int32
	counts []*atomic.Int64 // by name
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), byName: make(map[string]int32)}
}

// SetRun stamps every span recorded from now on with run ID id.
func (t *Tracer) SetRun(id int) {
	t.mu.Lock()
	t.run = int32(id)
	t.mu.Unlock()
}

// Name interns a span name; wrappers resolve theirs once, up front.
func (t *Tracer) Name(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.intern(name)
}

func (t *Tracer) intern(name string) int32 {
	id, ok := t.byName[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.byName[name] = id
		t.counts = append(t.counts, new(atomic.Int64))
	}
	return id
}

// Begin opens a span named by Name's result, nested under the engine
// goroutine's innermost open span, and returns its index for End.
func (t *Tracer) Begin(name int32) int32 {
	t.mu.Lock()
	parent := int32(noParent)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Run: t.run,
		Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// End closes the span Begin returned. Spans close innermost first; one
// that does not would break SelfTimes, so End refuses it.
func (t *Tracer) End(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d ended out of order", id))
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// Record stores a finished root span timed by the caller, for goroutines
// other than the one driving the engine.
func (t *Tracer) Record(name int32, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Parent: noParent, Run: t.run,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// Counter returns the named counter, for calls too short and frequent to
// span; callers add to it without taking the tracer's lock.
func (t *Tracer) Counter(name string) *atomic.Int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[t.intern(name)]
}

// Snapshot returns the recorded spans and the name table. Call it once
// every recording goroutine has stopped.
func (t *Tracer) Snapshot() ([]Span, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans, t.names
}

// SelfTimes returns, for each span, its duration minus its children's.
// End enforces strict nesting, so children lie inside their parent and do
// not overlap; Record only makes root spans.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent != noParent {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// LayerStats aggregates the spans of one name.
type LayerStats struct {
	Calls   int
	TotalNs int64
	SelfNs  int64
	Durs    []int64 // per-call durations, for percentiles
}

// Aggregate groups spans by name, with self time from SelfTimes.
func Aggregate(spans []Span, names []string) map[string]*LayerStats {
	self := SelfTimes(spans)
	out := make(map[string]*LayerStats, len(names))
	for _, n := range names {
		out[n] = &LayerStats{}
	}
	for i, s := range spans {
		st := out[names[s.Name]]
		st.Calls++
		st.TotalNs += s.End - s.Start
		st.SelfNs += self[i]
		st.Durs = append(st.Durs, s.End-s.Start)
	}
	return out
}

// writeSpans writes the spans as CSV, one header line of provenance first.
func writeSpans(path string, prov Provenance, spans []Span, names []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %s\n", prov.JSON())
	fmt.Fprintln(w, "id,parent,run,name,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.Parent, s.Run, names[s.Name], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
