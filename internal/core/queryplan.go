package core

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"strconv"
	"strings"
	"sync"

	"passcloud/internal/prov"
)

// This file holds the query planner's public shapes (QueryPlan, PlanStep),
// the opaque pagination cursor, the snapshot-pinned paging runner, and the
// Query/Explain frame every backend's Querier is written in.

// PlanStep is one predicted cloud operation class of a query plan.
type PlanStep struct {
	// Service is the metered service ("S3", "SimpleDB") or "-" for
	// client-side work.
	Service string
	// Op is the operation ("Select", "GetAttributes", "QueryWithAttributes",
	// "LIST", "HEAD", "GET", ...).
	Op string
	// Count is the predicted number of calls.
	Count int64
	// Note explains the step ("one page per 2500 items", ...).
	Note string
}

// QueryPlan is Explain's answer: how a backend will execute a descriptor
// and what it predicts the execution will cost — the paper's Table 3 cost
// model extended from three fixed queries to arbitrary descriptors.
type QueryPlan struct {
	// Arch names the architecture that produced the plan.
	Arch string
	// Strategy names the chosen plan shape: "snapshot" (serve from the
	// warm cache), "scan" (full repository scan), "indexed-two-phase"
	// (instances then dependents), "indexed-pushdown" (predicates in the
	// backend expression), "indexed-prefix" (starts-with traversal),
	// "indexed-bfs" / "indexed-walk" (descendants by chunked dependency
	// queries / ancestors by per-level item fetches, from seeds that cost
	// nothing), "item-listing", "pinned-refs", "graph-walk", "pinned-page",
	// "memo".
	Strategy string
	// Pushdown lists the predicate expressions evaluated inside the
	// backend rather than client-side.
	Pushdown []string
	// Steps breaks the prediction down per operation class.
	Steps []PlanStep
	// EstOps is the predicted total cloud operations.
	EstOps int64
	// Cached is true when a warm snapshot or memoized result answers the
	// query without touching the cloud (EstOps 0).
	Cached bool
	// Exact is true when the prediction derives from complete planner
	// statistics (this client performed every write). Writes by other
	// clients of a shared region degrade predictions to estimates.
	Exact bool
}

// AddStep appends a step and accumulates its count into EstOps.
func (p *QueryPlan) AddStep(service, op string, count int64, note string) {
	p.Steps = append(p.Steps, PlanStep{Service: service, Op: op, Count: count, Note: note})
	if service != "-" {
		p.EstOps += count
	}
}

// String renders a compact multi-line form for CLI output.
func (p QueryPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan arch=%s strategy=%s est_ops=%d", p.Arch, p.Strategy, p.EstOps)
	if p.Cached {
		b.WriteString(" (cached)")
	}
	if !p.Exact {
		b.WriteString(" (estimate)")
	}
	for _, pd := range p.Pushdown {
		fmt.Fprintf(&b, "\n  pushdown %s", pd)
	}
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "\n  step %s/%s x%d", s.Service, s.Op, s.Count)
		if s.Note != "" {
			fmt.Fprintf(&b, "  -- %s", s.Note)
		}
	}
	return b.String()
}

// PlanPages is the shared page-count model: how many paged calls a backend
// needs to return n results at pageLimit per page. Zero results still cost
// the one call that discovers there are none.
func PlanPages(n, pageLimit int) int64 {
	if n <= 0 {
		return 1
	}
	return int64((n + pageLimit - 1) / pageLimit)
}

// Stamped is implemented by stores that can render their current
// repository generation as an opaque token — the same token their own
// pagination cursors bind to. Composers (the shard router) concatenate
// member tokens into a composite stamp, so a write to any member changes
// the composite and fresh queries observe a new generation while resident
// pins keep serving in-flight page sequences.
type Stamped interface {
	// StampToken renders the store's current repository stamp. Tokens are
	// comparable for equality only; any write that could change query
	// results yields a different token.
	StampToken() string
}

// --- cursors -----------------------------------------------------------------

// Cursor errors.
var (
	// ErrBadCursor is returned for cursors this store never issued (or
	// issued for a different descriptor).
	ErrBadCursor = errors.New("core: malformed or mismatched query cursor")
	// ErrCursorExpired is returned when a cursor's pinned snapshot has
	// been evicted and the repository has changed since, so the page
	// sequence can no longer be served consistently.
	ErrCursorExpired = errors.New("core: query cursor expired")
)

// cursorState is the decoded form of an opaque cursor.
type cursorState struct {
	hash   uint64 // QueryHash of the logical query
	stamp  string // snapshot generation the result set was evaluated at
	offset int    // next entry index
}

// QueryHash fingerprints the logical query a cursor belongs to, so a cursor
// cannot resume a different descriptor.
func QueryHash(q prov.Query) uint64 {
	h := fnv.New64a()
	h.Write([]byte(q.Key()))
	return h.Sum64()
}

// encodeCursor renders an opaque resume token.
func encodeCursor(st cursorState) string {
	raw := fmt.Sprintf("c1|%016x|%s|%d", st.hash, st.stamp, st.offset)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor parses an opaque resume token.
func decodeCursor(s string) (cursorState, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return cursorState{}, fmt.Errorf("%w: %w", ErrBadCursor, err)
	}
	parts := strings.Split(string(raw), "|")
	if len(parts) != 4 || parts[0] != "c1" {
		return cursorState{}, ErrBadCursor
	}
	hash, err := strconv.ParseUint(parts[1], 16, 64)
	if err != nil {
		return cursorState{}, ErrBadCursor
	}
	offset, err := strconv.Atoi(parts[3])
	if err != nil || offset < 0 {
		return cursorState{}, ErrBadCursor
	}
	return cursorState{hash: hash, stamp: parts[2], offset: offset}, nil
}

// --- snapshot pins -----------------------------------------------------------

// maxPins bounds how many evaluated result sets a store retains for
// in-flight cursors. Oldest pins evict first; resuming an evicted cursor
// after the repository changed returns ErrCursorExpired.
const maxPins = 8

// pin is one retained result set: the entries a paginated query evaluated
// at one snapshot generation.
type pin struct {
	hash    uint64
	stamp   string
	entries []Entry
}

// Pins retains evaluated result sets for paginated queries, keyed by
// (query, snapshot generation). Pinning is what keeps a page sequence
// consistent across concurrent writes: later pages serve from the pinned
// evaluation even after the live repository moved on. Safe for concurrent
// use.
type Pins struct {
	mu   sync.Mutex
	inst string // random instance token mixed into cursor stamps
	pins []*pin // append order; evict from the front
}

// instance returns this registry's random token, generated on first use.
// Mixing it into cursor stamps makes a cursor minted by a different store
// instance (another client, an earlier process) fail with ErrBadCursor
// instead of colliding with a fresh store's process-local generation
// counter and silently resuming a result set this store never pinned.
func (p *Pins) instance() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inst == "" {
		var b [8]byte
		rand.Read(b[:])
		p.inst = hex.EncodeToString(b[:])
	}
	return p.inst
}

// token is the full stamp cursors bind to: instance token + repository
// generation.
func (p *Pins) token(stamp string) string {
	return p.instance() + "@" + stamp
}

// put retains entries for (hash, stamp), replacing any previous pin.
func (p *Pins) put(hash uint64, stamp string, entries []Entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pn := range p.pins {
		if pn.hash == hash && pn.stamp == stamp {
			p.pins = append(p.pins[:i], p.pins[i+1:]...)
			break
		}
	}
	p.pins = append(p.pins, &pin{hash: hash, stamp: stamp, entries: entries})
	if len(p.pins) > maxPins {
		p.pins = p.pins[len(p.pins)-maxPins:]
	}
}

// get returns the pinned entries for (hash, stamp).
func (p *Pins) get(hash uint64, stamp string) ([]Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pn := range p.pins {
		if pn.hash == hash && pn.stamp == stamp {
			return pn.entries, true
		}
	}
	return nil, false
}

// RunPaged executes a paginated descriptor over a backend's full-evaluation
// callback, yielding one page. The first page evaluates the query natively
// (eval receives the descriptor with pagination stripped), sorts the result
// canonically, and pins it under the current snapshot stamp; later pages
// decode the cursor and serve the pinned evaluation — zero cloud ops, and
// consistent even if writes landed in between. The last entry of a
// truncated page carries the next cursor.
func RunPaged(
	ctx context.Context,
	q prov.Query,
	stamp string,
	pins *Pins,
	eval func(context.Context, prov.Query) ([]Entry, error),
	yield func(Entry, error) bool,
) {
	hash := QueryHash(q)
	token := pins.token(stamp)

	evalAndPin := func(at string) ([]Entry, error) {
		inner := q
		inner.Limit, inner.Cursor = 0, ""
		entries, err := eval(ctx, inner)
		if err != nil {
			return nil, err
		}
		SortEntries(entries)
		pins.put(hash, at, entries)
		return entries, nil
	}

	var entries []Entry
	offset := 0
	at := token
	if q.Cursor != "" {
		d, st, pinned, err := resolveCursor(q.Cursor, hash, pins, token)
		if d == CursorReEval {
			// The pin was evicted but the repository has not changed:
			// re-evaluating reproduces the same result set (and the
			// memoized refs usually make it free).
			pinned, err = evalAndPin(st.stamp)
		}
		if err != nil {
			yield(Entry{}, err)
			return
		}
		entries, offset, at = pinned, st.offset, st.stamp
	} else {
		var err error
		if entries, err = evalAndPin(token); err != nil {
			yield(Entry{}, err)
			return
		}
	}

	end := len(entries)
	if q.Limit > 0 && offset+q.Limit < end {
		end = offset + q.Limit
	}
	for i := offset; i < end; i++ {
		e := entries[i]
		if i == end-1 && end < len(entries) {
			e.Cursor = encodeCursor(cursorState{hash: hash, stamp: at, offset: end})
		}
		if !yield(e, nil) {
			return
		}
	}
}

// CursorDisposition classifies how a backend serves a cursor-bearing
// descriptor: what resolveCursor decides, for RunPaged to act on and for
// Explain to report.
type CursorDisposition int

const (
	// CursorPinned: the pinned evaluation is resident; resuming serves it
	// at zero cloud ops.
	CursorPinned CursorDisposition = iota
	// CursorReEval: the pin was evicted but the repository is unchanged;
	// resuming re-evaluates the descriptor at the current stamp.
	CursorReEval
	// CursorFails: the cursor is malformed, foreign, or expired; resuming
	// fails (ErrBadCursor/ErrCursorExpired) without cloud ops.
	CursorFails
)

// ExplainCursor fills p for a cursor-bearing descriptor when the resume
// can be planned without costing an evaluation: a resident pin (free) or a
// cursor that fails outright. It returns true when the plan is complete;
// false means the pin was evicted at an unchanged stamp, so the caller
// must cost the re-evaluation (a note step is already added). Backends
// share this so their plan output for cursors cannot desynchronize.
func ExplainCursor(p *QueryPlan, q prov.Query, pins *Pins, stamp string) bool {
	switch PlanCursor(q, pins, stamp) {
	case CursorPinned:
		p.Strategy = "pinned-page"
		p.Cached = true
		p.AddStep("-", "pinned-page", 0, "resumed pages serve from the pinned evaluation at zero cloud ops")
		return true
	case CursorFails:
		p.Strategy = "pinned-page"
		p.AddStep("-", "pinned-page", 0, "cursor cannot resume (foreign or expired): fails without cloud ops")
		return true
	default: // CursorReEval
		p.AddStep("-", "pinned-page", 0, "pin evicted at an unchanged generation: resume re-evaluates")
		return false
	}
}

// PlanCursor predicts RunPaged's disposition of q.Cursor against the
// current repository stamp.
func PlanCursor(q prov.Query, pins *Pins, stamp string) CursorDisposition {
	d, _, _, _ := resolveCursor(q.Cursor, QueryHash(q), pins, pins.token(stamp))
	return d
}

// resolveCursor decides what resuming cursor does for the query hashing to
// hash, on a repository whose current cursor stamp is token — the one decision
// RunPaged acts on and PlanCursor reports. It returns the decoded state, the
// pinned evaluation when resident (CursorPinned), and the error a failing
// cursor fails with (CursorFails).
func resolveCursor(cursor string, hash uint64, pins *Pins, token string) (CursorDisposition, cursorState, []Entry, error) {
	st, err := decodeCursor(cursor)
	if err != nil {
		return CursorFails, st, nil, err
	}
	if st.hash != hash {
		return CursorFails, st, nil, fmt.Errorf("%w: cursor belongs to a different query", ErrBadCursor)
	}
	if inst, _, ok := strings.Cut(st.stamp, "@"); !ok || inst != pins.instance() {
		return CursorFails, st, nil, fmt.Errorf("%w: cursor was minted by a different store instance", ErrBadCursor)
	}
	if pinned, ok := pins.get(st.hash, st.stamp); ok {
		return CursorPinned, st, pinned, nil
	}
	if st.stamp != token {
		return CursorFails, st, nil, ErrCursorExpired
	}
	return CursorReEval, st, nil, nil
}

// --- the Querier frame -------------------------------------------------------

// RunFunc executes one non-paginated descriptor on a backend, streaming
// entries to yield; a non-nil error ends the stream.
type RunFunc func(ctx context.Context, q prov.Query, yield func(Entry, error) bool)

// Query is the run half of the frame every Querier shares: validate, then
// either one snapshot-pinned page (RunPaged over the full evaluation, the
// pieces of each ref merged so a page never repeats one) or the backend's
// stream untouched — an unpaged S3-only Q.1 keeps one LIST page resident at
// a time. Backends supply only run.
func Query(ctx context.Context, q prov.Query, s Stamped, pins *Pins, run RunFunc) iter.Seq2[Entry, error] {
	return func(yield func(Entry, error) bool) {
		if err := q.Validate(); err != nil {
			yield(Entry{}, err)
			return
		}
		if q.Limit == 0 && q.Cursor == "" {
			run(ctx, q, yield)
			return
		}
		evalAll := func(ctx context.Context, q prov.Query) ([]Entry, error) {
			return CollectMerged(func(yield func(Entry, error) bool) { run(ctx, q, yield) })
		}
		RunPaged(ctx, q, s.StampToken(), pins, evalAll, yield)
	}
}

// RunOnGraph is the run both scan-backed stores share for what no cheaper
// plan answers: q on the repository's materialized graph (gq's snapshot when
// warm, else one pass) — Q.1 as the graph's subjects, one entry each,
// anything filtered or traversed through the refs pipeline, GraphEntries.
func RunOnGraph(ctx context.Context, q prov.Query, gq GraphQuerier, yield func(Entry, error) bool) {
	g, err := gq.ProvenanceGraph(ctx)
	if err != nil {
		yield(Entry{}, err)
		return
	}
	if q.IsQ1() {
		for _, subject := range g.Subjects() {
			if !yield(Entry{Ref: subject, Records: g.Records(subject)}, nil) {
				return
			}
		}
		return
	}
	for _, e := range GraphEntries([]*prov.Graph{g}, nil, q) {
		if !yield(e, nil) {
			return
		}
	}
}

// Explain is the plan half of the frame: p arrives with Arch and Exact set;
// invalid descriptors, the cursor's disposition (ExplainCursor), pagination
// stripping and the trailing "paginate" step are decided here, and plan
// costs the stripped descriptor. plan runs with q.Cursor still set only
// when an evicted pin re-evaluates at an unchanged generation.
func Explain(p QueryPlan, q prov.Query, s Stamped, pins *Pins, plan func(p *QueryPlan, stripped prov.Query)) QueryPlan {
	if err := q.Validate(); err != nil {
		p.Strategy = "invalid"
		return p
	}
	if q.Cursor != "" && ExplainCursor(&p, q, pins, s.StampToken()) {
		return p
	}
	stripped := q
	stripped.Limit, stripped.Cursor = 0, ""
	plan(&p, stripped)
	if q.Limit > 0 {
		p.AddStep("-", "paginate", 0, "first page evaluates fully, sorts and pins; later pages are free")
	}
	return p
}
