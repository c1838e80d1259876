// Package sdb simulates Amazon SimpleDB as the paper describes it (§2.2,
// January-2009 snapshot): an eventually-consistent, automatically indexed
// store of items described by attribute-value pairs, queried with the 2009
// bracket query language and the SQL-style Select.
//
// Data model and limits (paper §2.2):
//
//   - items live in a domain and are sets of attribute-value pairs;
//   - an item holds at most 256 pairs; names and values are at most 1 KB;
//   - one PutAttributes call carries at most 100 attributes;
//   - PutAttributes and DeleteAttributes are idempotent;
//   - an item inserted might not be returned by a query run immediately
//     after the insert (eventual consistency).
//
// Replication model: each domain keeps one materialized view per replica.
// A write is assigned a per-replica visibility instant and queues on each
// view; views drain their queues in write order as the clock passes those
// instants. Reads and queries are served by one randomly chosen view, so a
// query sees a single consistent-but-possibly-stale snapshot, and all views
// converge once the propagation horizon passes.
//
// Locking: one service mutex guards all domains and views. Public methods
// hold it for their whole body; unexported helpers assume it is held.
package sdb

import (
	"sort"
	"sync"
	"time"

	"passcloud/internal/cloud/awserr"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/sim"
)

// Limits from the paper's AWS snapshot.
const (
	// MaxNameValueLen bounds attribute names and values: 1 KB.
	MaxNameValueLen = 1 << 10
	// MaxAttrsPerItem bounds attribute-value pairs per item: 256.
	MaxAttrsPerItem = 256
	// MaxAttrsPerCall bounds attributes in one PutAttributes call: 100.
	MaxAttrsPerCall = 100
	// MaxItemsPerBatch bounds items in one BatchPutAttributes call: 25.
	// The 2009 API's amortization lever — "with a single operation, you can
	// store attributes for up to 25 items".
	MaxItemsPerBatch = 25
	// MaxItemNameLen bounds item names: 1 KB.
	MaxItemNameLen = 1 << 10
	// QueryPageLimit is the maximum (and default) number of item names one
	// Query/QueryWithAttributes call returns.
	QueryPageLimit = 250
	// SelectPageLimit is the maximum number of items one Select returns.
	SelectPageLimit = 2500
	// itemOverheadBytes is the per-item billing overhead Amazon charged on
	// top of raw name/value bytes.
	itemOverheadBytes = 45
)

// Attr is one attribute-value pair. Items may carry several pairs with the
// same name; (name, value) pairs are set-unique within an item.
type Attr struct {
	Name  string
	Value string
}

// ReplaceableAttr is a PutAttributes input: with Replace set, all existing
// values of Name are dropped before Value is added.
type ReplaceableAttr struct {
	Name    string
	Value   string
	Replace bool
}

// Item is a named set of attributes, as returned by queries.
type Item struct {
	Name  string
	Attrs []Attr
}

// Config parameterizes the service.
type Config struct {
	// Replicas is the number of materialized views per domain (default 3).
	Replicas int
	// MinDelay/MaxDelay bound the per-replica propagation delay. Both zero
	// means strongly consistent.
	MinDelay, MaxDelay time.Duration
	// Clock is the time source. Required.
	Clock sim.Clock
	// RNG drives replica choice and delays. Required.
	RNG *sim.RNG
	// Meter receives billing events. Required.
	Meter *billing.Meter
	// Faults optionally injects service-side failures (throttles, denials,
	// lost responses) per operation. Nil injects nothing.
	Faults *sim.FaultPlan
}

// Service is a simulated SimpleDB endpoint.
type Service struct {
	cfg Config

	mu      sync.Mutex
	domains map[string]*domain
}

// New returns an empty SimpleDB service.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		panic("sdb: Config.Clock is required")
	}
	if cfg.RNG == nil {
		panic("sdb: Config.RNG is required")
	}
	if cfg.Meter == nil {
		panic("sdb: Config.Meter is required")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 3
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	return &Service{cfg: cfg, domains: make(map[string]*domain)}
}

// MaxDelay returns the propagation horizon.
func (s *Service) MaxDelay() time.Duration { return s.cfg.MaxDelay }

// Meter returns the service's billing meter.
func (s *Service) Meter() *billing.Meter { return s.cfg.Meter }

// domain holds per-replica materialized views.
type domain struct {
	name  string
	views []*view
}

// view is one replica's materialized state: items plus the automatic index
// ("SimpleDB automatically indexes data as it is inserted"), kept current by
// indexAdd/indexRemove as applyToView applies each write.
//
// The index is a hash on (attribute, value): the bracket-query engine
// answers a disjunction of `=` comparisons with one lookup per literal, and
// answers every other operator by walking the attribute's distinct values
// (see evalPredicate) — there is no ordered structure, so a range or a
// prefix costs the attribute's value count, not its match count. Select
// does not consult the index at all; it evaluates its where clause item by
// item.
type view struct {
	pending []pendingOp // FIFO in write order; drained as clock passes dueAt
	items   map[string][]Attr
	// index: attribute name -> value -> item-name set. Empty sets are
	// deleted, so a value is present exactly while some item carries it.
	index map[string]map[string]map[string]struct{}
}

type pendingOp struct {
	dueAt time.Time
	op    writeOp
}

// writeOp is a replicated mutation.
type writeOp struct {
	item      string
	put       []ReplaceableAttr // non-nil for PutAttributes
	del       []Attr            // used by DeleteAttributes
	deleteAll bool
}

func newDomain(name string, replicas int) *domain {
	d := &domain{name: name}
	for i := 0; i < replicas; i++ {
		d.views = append(d.views, &view{
			items: make(map[string][]Attr),
			index: make(map[string]map[string]map[string]struct{}),
		})
	}
	return d
}

// checkFault consults the fault plan for op ("sdb/<op>"). A fail-fast fault
// meters the failed request under the error-suffixed key and returns its
// error; ackLoss tells the caller to apply the op fully and then return a
// timeout anyway. Caller holds s.mu.
func (s *Service) checkFault(op, domainName, item string) (failErr error, ackLoss bool) {
	switch s.cfg.Faults.CheckOp("sdb/" + op) {
	case sim.OpFailTransient:
		s.cfg.Meter.OpErr(billing.SimpleDB, op, billing.TierBox)
		return opErr(op, domainName, item, awserr.ErrThrottled), false
	case sim.OpFailPermanent:
		s.cfg.Meter.OpErr(billing.SimpleDB, op, billing.TierBox)
		return opErr(op, domainName, item, awserr.ErrAccessDenied), false
	case sim.OpAckLoss:
		return nil, true
	}
	return nil, false
}

// CreateDomain creates a domain. Immediately visible; the paper's protocols
// create domains once at setup time.
func (s *Service) CreateDomain(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Meter.Op(billing.SimpleDB, "CreateDomain", billing.TierBox)
	if !validName(name, MaxItemNameLen) {
		return opErr("CreateDomain", name, "", ErrInvalidName)
	}
	if _, ok := s.domains[name]; ok {
		return opErr("CreateDomain", name, "", ErrDomainExists)
	}
	s.domains[name] = newDomain(name, s.cfg.Replicas)
	return nil
}

// DeleteDomain removes a domain and everything in it. Idempotent.
func (s *Service) DeleteDomain(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Meter.Op(billing.SimpleDB, "DeleteDomain", billing.TierBox)
	delete(s.domains, name)
	return nil
}

// ListDomains returns all domain names, sorted.
func (s *Service) ListDomains() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Meter.Op(billing.SimpleDB, "ListDomains", billing.TierBox)
	out := make([]string, 0, len(s.domains))
	for name := range s.domains {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PutAttributes inserts or updates attributes of an item. It is idempotent:
// re-running the same call leaves the same state and returns no error
// (paper §2.2). At most MaxAttrsPerCall attributes per call.
func (s *Service) PutAttributes(domainName, itemName string, attrs []ReplaceableAttr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.domains[domainName]
	if !ok {
		return opErr("PutAttributes", domainName, itemName, ErrNoSuchDomain)
	}
	// Billed requests that change nothing — validation rejections, injected
	// faults — meter under the error-suffixed key so mutation counters only
	// see writes that landed.
	fail := func(code error) error {
		s.cfg.Meter.OpErr(billing.SimpleDB, "PutAttributes", billing.TierBox)
		return opErr("PutAttributes", domainName, itemName, code)
	}
	if !validName(itemName, MaxItemNameLen) {
		return fail(ErrInvalidName)
	}
	if len(attrs) == 0 {
		return fail(ErrInvalidName)
	}
	if len(attrs) > MaxAttrsPerCall {
		return fail(ErrTooManyAttrsPerCall)
	}
	var inBytes int64
	for _, a := range attrs {
		if len(a.Name) == 0 || len(a.Name) > MaxNameValueLen || len(a.Value) > MaxNameValueLen {
			return fail(ErrTooLarge)
		}
		inBytes += int64(len(a.Name) + len(a.Value))
	}
	op := writeOp{item: itemName, put: append([]ReplaceableAttr(nil), attrs...)}

	// The 256-pair limit is validated against the authoritative (eventual)
	// state so a client cannot overfill an item by racing propagation.
	cur := eventualAttrs(d.views[0], itemName, writeOp{})
	after, _ := applyOp(append([]Attr(nil), cur...), cur != nil, op)
	if len(after) > MaxAttrsPerItem {
		return fail(ErrTooManyAttrsPerItem)
	}
	// Faults fire only on requests that passed every validation, so an
	// ack-loss outcome always means the write below applied.
	failErr, ackLoss := s.checkFault("PutAttributes", domainName, itemName)
	if failErr != nil {
		return failErr
	}

	s.cfg.Meter.Op(billing.SimpleDB, "PutAttributes", billing.TierBox)
	s.cfg.Meter.In(billing.SimpleDB, inBytes)
	s.replicate(d, op)
	if ackLoss {
		// The write landed; only the response was lost. PutAttributes is
		// idempotent (§2.2), so retrying is safe.
		return opErr("PutAttributes", domainName, itemName, awserr.ErrRequestTimeout)
	}
	return nil
}

// BatchItem is one item's worth of a BatchPutAttributes call.
type BatchItem struct {
	Name  string
	Attrs []ReplaceableAttr
}

// BatchPutAttributes inserts or updates attributes of up to MaxItemsPerBatch
// items in one metered request, amortizing per-call overhead across items.
// Per-item semantics match PutAttributes (idempotent, Replace honored); an
// item name may appear only once per call. The whole call is validated
// before any item is applied, so a limit violation stores nothing.
func (s *Service) BatchPutAttributes(domainName string, items []BatchItem) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.domains[domainName]
	if !ok {
		return opErr("BatchPutAttributes", domainName, "", ErrNoSuchDomain)
	}
	fail := func(item string, code error) error {
		s.cfg.Meter.OpErr(billing.SimpleDB, "BatchPutAttributes", billing.TierBox)
		return opErr("BatchPutAttributes", domainName, item, code)
	}
	if len(items) == 0 {
		return fail("", ErrInvalidName)
	}
	if len(items) > MaxItemsPerBatch {
		return fail("", ErrTooManyItemsPerBatch)
	}

	var inBytes int64
	seen := make(map[string]bool, len(items))
	ops := make([]writeOp, 0, len(items))
	for _, it := range items {
		if !validName(it.Name, MaxItemNameLen) {
			return fail(it.Name, ErrInvalidName)
		}
		if seen[it.Name] {
			return fail(it.Name, ErrDuplicateItemInBatch)
		}
		seen[it.Name] = true
		if len(it.Attrs) == 0 {
			return fail(it.Name, ErrInvalidName)
		}
		if len(it.Attrs) > MaxAttrsPerCall {
			return fail(it.Name, ErrTooManyAttrsPerCall)
		}
		for _, a := range it.Attrs {
			if len(a.Name) == 0 || len(a.Name) > MaxNameValueLen || len(a.Value) > MaxNameValueLen {
				return fail(it.Name, ErrTooLarge)
			}
			inBytes += int64(len(a.Name) + len(a.Value))
		}
		op := writeOp{item: it.Name, put: append([]ReplaceableAttr(nil), it.Attrs...)}
		cur := eventualAttrs(d.views[0], it.Name, writeOp{})
		after, _ := applyOp(append([]Attr(nil), cur...), cur != nil, op)
		if len(after) > MaxAttrsPerItem {
			return fail(it.Name, ErrTooManyAttrsPerItem)
		}
		ops = append(ops, op)
	}
	failErr, ackLoss := s.checkFault("BatchPutAttributes", domainName, "")
	if failErr != nil {
		return failErr
	}

	s.cfg.Meter.Op(billing.SimpleDB, "BatchPutAttributes", billing.TierBox)
	s.cfg.Meter.In(billing.SimpleDB, inBytes)
	for _, op := range ops {
		s.replicate(d, op)
	}
	if ackLoss {
		// Every item landed; only the response was lost. Per-item semantics
		// are idempotent, so re-sending the whole batch is safe.
		return opErr("BatchPutAttributes", domainName, "", awserr.ErrRequestTimeout)
	}
	return nil
}

// DeleteAttributes removes the given attributes from an item; with an empty
// attrs list the whole item is deleted. A delete spec with an empty Value
// removes every value of that name. Idempotent: deleting what is absent is
// not an error (paper §2.2).
func (s *Service) DeleteAttributes(domainName, itemName string, attrs []Attr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.domains[domainName]
	if !ok {
		return opErr("DeleteAttributes", domainName, itemName, ErrNoSuchDomain)
	}
	failErr, ackLoss := s.checkFault("DeleteAttributes", domainName, itemName)
	if failErr != nil {
		return failErr
	}
	s.cfg.Meter.Op(billing.SimpleDB, "DeleteAttributes", billing.TierBox)
	if len(attrs) == 0 {
		s.replicate(d, writeOp{item: itemName, deleteAll: true})
	} else {
		s.replicate(d, writeOp{item: itemName, del: append([]Attr(nil), attrs...)})
	}
	if ackLoss {
		// The delete landed; DeleteAttributes is idempotent (§2.2).
		return opErr("DeleteAttributes", domainName, itemName, awserr.ErrRequestTimeout)
	}
	return nil
}

// GetAttributes returns the attributes of an item as one replica sees it,
// optionally filtered to the given names. A missing item yields ok=false
// with no error, matching SimpleDB's empty response.
func (s *Service) GetAttributes(domainName, itemName string, names ...string) (attrs []Attr, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, found := s.domains[domainName]
	if !found {
		return nil, false, opErr("GetAttributes", domainName, itemName, ErrNoSuchDomain)
	}
	failErr, ackLoss := s.checkFault("GetAttributes", domainName, itemName)
	if failErr != nil {
		return nil, false, failErr
	}
	s.cfg.Meter.Op(billing.SimpleDB, "GetAttributes", billing.TierBox)
	if ackLoss {
		return nil, false, opErr("GetAttributes", domainName, itemName, awserr.ErrRequestTimeout)
	}
	v := d.views[s.cfg.RNG.Intn(len(d.views))]
	s.drain(v)

	stored, exists := v.items[itemName]
	if !exists {
		return nil, false, nil
	}
	var out []Attr
	if len(names) == 0 {
		out = append(out, stored...)
	} else {
		want := make(map[string]bool, len(names))
		for _, n := range names {
			want[n] = true
		}
		for _, a := range stored {
			if want[a.Name] {
				out = append(out, a)
			}
		}
	}
	var outBytes int64
	for _, a := range out {
		outBytes += int64(len(a.Name) + len(a.Value))
	}
	s.cfg.Meter.Out(billing.SimpleDB, outBytes)
	return out, true, nil
}

// replicate stamps per-replica visibility, queues the op on every view, and
// updates storage accounting from the authoritative state delta.
// Caller holds s.mu.
func (s *Service) replicate(d *domain, op writeOp) {
	now := s.cfg.Clock.Now()

	// Apply everything already due first, so the eventual-state walk below
	// only traverses genuinely pending ops. Without this, write-only
	// workloads accumulate pending lists and each write pays O(pending).
	for _, v := range d.views {
		s.drain(v)
	}

	before := billedSize(op.item, eventualAttrs(d.views[0], op.item, writeOp{}))

	accepting := s.cfg.RNG.Intn(len(d.views))
	for i, v := range d.views {
		due := now
		if i != accepting {
			due = now.Add(s.propagationDelay())
		}
		v.pending = append(v.pending, pendingOp{dueAt: due, op: op})
	}

	after := billedSize(op.item, eventualAttrs(d.views[0], op.item, writeOp{}))
	s.cfg.Meter.StorageDelta(billing.SimpleDB, after-before)
}

func (s *Service) propagationDelay() time.Duration {
	span := s.cfg.MaxDelay - s.cfg.MinDelay
	if span <= 0 {
		return s.cfg.MinDelay
	}
	return s.cfg.MinDelay + time.Duration(s.cfg.RNG.Int63()%int64(span+1))
}

// eventualAttrs computes item's attribute set after all of v's pending ops
// (plus optionally one extra op) apply. nil result means the item will not
// exist. Caller holds s.mu.
func eventualAttrs(v *view, item string, extra writeOp) []Attr {
	base := v.items[item]
	cur := append([]Attr(nil), base...)
	present := base != nil
	for _, p := range v.pending {
		if p.op.item == item {
			cur, present = applyOp(cur, present, p.op)
		}
	}
	if extra.item == item && (extra.put != nil || extra.del != nil || extra.deleteAll) {
		cur, present = applyOp(cur, present, extra)
	}
	if !present {
		return nil
	}
	if len(cur) == 0 {
		// Present but empty cannot happen post-applyOp; normalize anyway.
		return nil
	}
	return cur
}

// billedSize is the Amazon storage formula: raw name/value bytes + item name
// + 45 bytes of per-item overhead; zero for absent items.
func billedSize(item string, attrs []Attr) int64 {
	if attrs == nil {
		return 0
	}
	n := int64(len(item)) + itemOverheadBytes
	for _, a := range attrs {
		n += int64(len(a.Name) + len(a.Value))
	}
	return n
}

// applyOp applies one write op to an item's attribute set, returning the new
// set and whether the item exists afterwards. The caller owns cur.
func applyOp(cur []Attr, present bool, op writeOp) ([]Attr, bool) {
	switch {
	case op.deleteAll:
		return nil, false
	case op.del != nil:
		out := cur[:0]
		for _, a := range cur {
			if !matchesDelete(a, op.del) {
				out = append(out, a)
			}
		}
		if len(out) == 0 {
			return nil, false
		}
		return out, true
	case op.put != nil:
		replaced := make(map[string]bool)
		for _, ra := range op.put {
			if ra.Replace {
				replaced[ra.Name] = true
			}
		}
		out := make([]Attr, 0, len(cur)+len(op.put))
		for _, a := range cur {
			if !replaced[a.Name] {
				out = append(out, a)
			}
		}
		for _, ra := range op.put {
			pair := Attr{Name: ra.Name, Value: ra.Value}
			if !containsAttr(out, pair) {
				out = append(out, pair)
			}
		}
		return out, true
	default:
		return cur, present
	}
}

// matchesDelete reports whether a matches any delete spec.
func matchesDelete(a Attr, specs []Attr) bool {
	for _, d := range specs {
		if d.Name == a.Name && (d.Value == "" || d.Value == a.Value) {
			return true
		}
	}
	return false
}

func containsAttr(attrs []Attr, a Attr) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}

// drain applies every pending op whose visibility instant has passed, in
// write order, keeping the materialized items and index current.
// Caller holds s.mu.
func (s *Service) drain(v *view) {
	now := s.cfg.Clock.Now()
	i := 0
	for ; i < len(v.pending); i++ {
		p := v.pending[i]
		if p.dueAt.After(now) {
			break
		}
		applyToView(v, p.op)
	}
	if i > 0 {
		v.pending = append(v.pending[:0], v.pending[i:]...)
	}
}

// applyToView mutates the materialized map and the automatic index.
func applyToView(v *view, op writeOp) {
	before := v.items[op.item]
	after, present := applyOp(append([]Attr(nil), before...), before != nil, op)

	beforeSet := make(map[Attr]bool, len(before))
	for _, a := range before {
		beforeSet[a] = true
	}
	for _, a := range after {
		if !beforeSet[a] {
			indexAdd(v, op.item, a)
		}
		delete(beforeSet, a)
	}
	for a := range beforeSet {
		indexRemove(v, op.item, a)
	}

	if !present {
		delete(v.items, op.item)
		return
	}
	v.items[op.item] = after
}

func indexAdd(v *view, item string, a Attr) {
	byValue := v.index[a.Name]
	if byValue == nil {
		byValue = make(map[string]map[string]struct{})
		v.index[a.Name] = byValue
	}
	set := byValue[a.Value]
	if set == nil {
		set = make(map[string]struct{})
		byValue[a.Value] = set
	}
	set[item] = struct{}{}
}

func indexRemove(v *view, item string, a Attr) {
	byValue := v.index[a.Name]
	if byValue == nil {
		return
	}
	set := byValue[a.Value]
	if set == nil {
		return
	}
	delete(set, item)
	if len(set) == 0 {
		delete(byValue, a.Value)
	}
}

// Converged reports whether every view of every domain has fully drained.
func (s *Service) Converged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	for _, d := range s.domains {
		for _, v := range d.views {
			for _, p := range v.pending {
				if p.dueAt.After(now) {
					return false
				}
			}
		}
	}
	return true
}

// ItemCount reports the number of items visible on replica 0 of a domain; a
// cheap convergence and size probe for tests.
func (s *Service) ItemCount(domainName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.domains[domainName]
	if !ok {
		return 0, opErr("ItemCount", domainName, "", ErrNoSuchDomain)
	}
	s.drain(d.views[0])
	return len(d.views[0].items), nil
}

func validName(name string, max int) bool {
	return len(name) >= 1 && len(name) <= max
}
