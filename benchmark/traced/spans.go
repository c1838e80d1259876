package traced

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans are recorded only
// from this package's wrappers — the program under test is not
// instrumented — kept in memory, and analysed when the run ends.
type Span struct {
	Name string
	// ID indexes the span; Parent is the ID of the span that caused it
	// (-1 for a root). Op is the root's ID: spans of one client call
	// share it.
	ID, Parent, Op int
	// Start and End are offsets from the recorder's epoch.
	Start, End time.Duration
	// N is a count taken at the same boundary: events in a flushed batch,
	// transactions a daemon pass committed.
	N int
}

// Duration is the span's wall time.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// Recorder collects spans from any number of goroutines.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recording.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

type spanKey struct{}

// Start opens a span named name under the span ctx carries (a root when
// it carries none) and returns a context carrying the new span, plus the
// function that closes it with its boundary count. A nil Recorder records
// nothing.
func (r *Recorder) Start(ctx context.Context, name string) (context.Context, func(n int)) {
	if r == nil {
		return ctx, func(int) {}
	}
	start := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	s := Span{Name: name, ID: id, Parent: -1, Op: id, Start: start}
	if parent, ok := ctx.Value(spanKey{}).(int); ok {
		s.Parent, s.Op = parent, r.spans[parent].Op
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), func(n int) {
		end := time.Since(r.epoch)
		r.mu.Lock()
		r.spans[id].End, r.spans[id].N = end, n
		r.mu.Unlock()
	}
}

// Spans returns the recording so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Tree indexes a finished recording by parent.
type Tree struct {
	Spans    []Span
	children map[int][]int
}

// NewTree indexes spans.
func NewTree(spans []Span) *Tree {
	t := &Tree{Spans: spans, children: make(map[int][]int)}
	for _, s := range spans {
		if s.Parent >= 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		}
	}
	return t
}

// Named returns the spans called name, in start order.
func (t *Tree) Named(name string) []*Span {
	var out []*Span
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			out = append(out, &t.Spans[i])
		}
	}
	return out
}

// Children returns s's direct children called name (all when name is
// empty).
func (t *Tree) Children(s *Span, name string) []*Span {
	var out []*Span
	for _, id := range t.children[s.ID] {
		if c := &t.Spans[id]; name == "" || c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Self is s's duration minus the part of it its children cover: the
// union of their intervals, so children that ran concurrently are not
// subtracted twice.
func (t *Tree) Self(s *Span) time.Duration {
	kids := t.Children(s, "")
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := time.Duration(0), s.Start
	for _, c := range kids {
		from, to := max(c.Start, edge), min(c.End, s.End)
		if to > from {
			covered += to - from
			edge = to
		}
	}
	return s.Duration() - covered
}
