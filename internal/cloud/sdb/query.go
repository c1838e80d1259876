package sdb

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"passcloud/internal/cloud/awserr"
	"passcloud/internal/cloud/billing"
)

// This file implements the 2009 SimpleDB Query language (paper §2.2):
//
//	['attr' op 'value' {and|or} ...] {intersection|union|not} [...] ... [sort 'attr' [asc|desc]]
//
// Every comparison inside one bracketed predicate must reference the same
// attribute; predicates over different attributes combine with the set
// operators. A predicate matches an item when some single value of the
// attribute satisfies the predicate's boolean combination — the documented
// multi-valued-attribute rule. All comparisons are lexicographic on strings,
// exactly like real SimpleDB (clients zero-pad numbers).

// queryExpr is a parsed query: a chain of predicates combined left-to-right
// with set operators, plus an optional sort.
type queryExpr struct {
	first    *predicate
	rest     []setTerm
	sortAttr string
	sortDesc bool
	hasSort  bool
}

type setTerm struct {
	op   string // "intersection", "union", "not"
	pred *predicate
}

// predicate is one bracketed group over a single attribute.
type predicate struct {
	attr string
	// tree of comparisons combined with and/or, all over attr.
	cond boolExpr
	// equals holds the literals when cond is a disjunction of `=`
	// comparisons (one comparison, or several joined by `or` only), in
	// source order with duplicates kept; nil for every other shape. Such a
	// predicate matches exactly the items indexed under one of the literals.
	equals []string
}

// boolExpr evaluates a predicate's condition against one attribute value.
type boolExpr interface {
	eval(value string) bool
}

type cmpExpr struct {
	op    string
	value string
}

func (c cmpExpr) eval(v string) bool {
	switch c.op {
	case "=":
		return v == c.value
	case "!=":
		return v != c.value
	case "<":
		return v < c.value
	case "<=":
		return v <= c.value
	case ">":
		return v > c.value
	case ">=":
		return v >= c.value
	case "starts-with":
		return strings.HasPrefix(v, c.value)
	case "does-not-start-with":
		return !strings.HasPrefix(v, c.value)
	default:
		return false
	}
}

type andExpr struct{ l, r boolExpr }

func (a andExpr) eval(v string) bool { return a.l.eval(v) && a.r.eval(v) }

type orExpr struct{ l, r boolExpr }

func (o orExpr) eval(v string) bool { return o.l.eval(v) || o.r.eval(v) }

// queryParser consumes a token stream.
type queryParser struct {
	toks []token
	pos  int
}

func (p *queryParser) peek() token { return p.toks[p.pos] }

func (p *queryParser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *queryParser) expect(kind tokenKind) (token, error) {
	t := p.advance()
	if t.kind != kind {
		return t, fmt.Errorf("expected %v, got %v %q at %d", kind, t.kind, t.text, t.pos)
	}
	return t, nil
}

// parseQuery parses a complete query expression.
func parseQuery(src string) (*queryExpr, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &queryParser{toks: toks}
	q := &queryExpr{}

	q.first, err = p.parsePredicate()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokWord {
			word := strings.ToLower(t.text)
			switch word {
			case "intersection", "union", "not":
				p.advance()
				pred, err := p.parsePredicate()
				if err != nil {
					return nil, err
				}
				q.rest = append(q.rest, setTerm{op: word, pred: pred})
				continue
			case "sort":
				p.advance()
				attrTok, err := p.expect(tokString)
				if err != nil {
					return nil, err
				}
				q.sortAttr = attrTok.text
				q.hasSort = true
				if t := p.peek(); t.kind == tokWord {
					switch strings.ToLower(t.text) {
					case "asc":
						p.advance()
					case "desc":
						p.advance()
						q.sortDesc = true
					}
				}
				continue
			}
		}
		break
	}
	if _, err := p.expect(tokEOF); err != nil {
		return nil, err
	}
	return q, nil
}

// parsePredicate parses ['attr' op 'value' {and|or} 'attr' op 'value' ...].
// All comparisons in one predicate must reference the same attribute.
func (p *queryParser) parsePredicate() (*predicate, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	pred := &predicate{}
	first, err := p.parseComparison(pred)
	if err != nil {
		return nil, err
	}
	var cond boolExpr = first
	// equals collects the literals while the condition is still a pure
	// disjunction of equalities; any other operator or an `and` drops it.
	var equals []string
	if first.op == "=" {
		equals = []string{first.value}
	}
	for {
		t := p.advance()
		switch {
		case t.kind == tokRBracket:
			pred.cond, pred.equals = cond, equals
			return pred, nil
		case t.kind == tokWord && strings.EqualFold(t.text, "and"):
			next, err := p.parseComparison(pred)
			if err != nil {
				return nil, err
			}
			cond, equals = andExpr{l: cond, r: next}, nil
		case t.kind == tokWord && strings.EqualFold(t.text, "or"):
			next, err := p.parseComparison(pred)
			if err != nil {
				return nil, err
			}
			cond = orExpr{l: cond, r: next}
			if equals != nil && next.op == "=" {
				equals = append(equals, next.value)
			} else {
				equals = nil
			}
		default:
			return nil, fmt.Errorf("expected ']', 'and' or 'or', got %q at %d", t.text, t.pos)
		}
	}
}

// parseComparison parses 'attr' op 'value', recording or checking the
// predicate's single attribute.
func (p *queryParser) parseComparison(pred *predicate) (cmpExpr, error) {
	attrTok, err := p.expect(tokString)
	if err != nil {
		return cmpExpr{}, err
	}
	if pred.attr == "" {
		pred.attr = attrTok.text
	} else if pred.attr != attrTok.text {
		return cmpExpr{}, fmt.Errorf("predicate mixes attributes %q and %q at %d; use intersection between predicates",
			pred.attr, attrTok.text, attrTok.pos)
	}
	opTok, err := p.expect(tokOp)
	if err != nil {
		return cmpExpr{}, err
	}
	valTok, err := p.expect(tokString)
	if err != nil {
		return cmpExpr{}, err
	}
	return cmpExpr{op: opTok.text, value: valTok.text}, nil
}

// evalPredicate returns the set of item names matching pred in view v.
//
// A predicate whose condition is a disjunction of `=` comparisons
// (pred.equals: one equality, or several joined by `or` only) is answered
// from the automatic index with one index[attr][literal] lookup per literal,
// so it costs what it matches: duplicate literals re-add the same items and
// absent ones find an empty set. Every other shape — starts-with, ranges,
// `!=`, anything under `and`, an `or` that mixes `=` with another operator —
// walks each distinct value the attribute takes in the view and runs the
// condition tree on it: cheaper than scanning items when values repeat,
// linear in the attribute's distinct values when they do not.
func evalPredicate(v *view, pred *predicate) map[string]struct{} {
	out := make(map[string]struct{})
	byValue := v.index[pred.attr]
	if pred.equals != nil {
		for _, literal := range pred.equals {
			for item := range byValue[literal] {
				out[item] = struct{}{}
			}
		}
		return out
	}
	for value, items := range byValue {
		if pred.cond.eval(value) {
			for item := range items {
				out[item] = struct{}{}
			}
		}
	}
	return out
}

// indexedUnder reports whether one attribute's index (value -> item-name
// set) lists item under one of the given values — membership in an equality
// predicate's match set, without building the set.
func indexedUnder(byValue map[string]map[string]struct{}, values []string, item string) bool {
	for _, value := range values {
		if _, ok := byValue[value][item]; ok {
			return true
		}
	}
	return false
}

// evalQuery evaluates a parsed query against view v, returning matching item
// names in result order (sorted by the sort attribute if present, item name
// otherwise).
//
// Set operators apply strictly left to right with no precedence: the first
// predicate's match set is the accumulator and each following term
// intersects it with, unions it with, or subtracts from it that term's match
// set. An intersection with an equality predicate probes the index once per
// accumulated item and literal instead of materializing the operand — the
// right-hand side of `['name' = …] intersection ['type' = 'file']` matches
// most of a domain. Sets carry no order, and the result is sorted at the
// end, so neither map iteration order nor which of the two paths answered a
// predicate can show in the output, the page boundaries or the NextTokens.
func evalQuery(v *view, q *queryExpr) ([]string, error) {
	acc := evalPredicate(v, q.first)
	for _, term := range q.rest {
		if term.op == "intersection" && term.pred.equals != nil {
			byValue := v.index[term.pred.attr]
			for item := range acc {
				if !indexedUnder(byValue, term.pred.equals, item) {
					delete(acc, item)
				}
			}
			continue
		}
		next := evalPredicate(v, term.pred)
		switch term.op {
		case "intersection":
			for item := range acc {
				if _, ok := next[item]; !ok {
					delete(acc, item)
				}
			}
		case "union":
			for item := range next {
				acc[item] = struct{}{}
			}
		case "not":
			for item := range next {
				delete(acc, item)
			}
		}
	}

	names := make([]string, 0, len(acc))
	for item := range acc {
		names = append(names, item)
	}

	if q.hasSort {
		return sortByAttr(v, names, q.sortAttr, q.sortDesc), nil
	}
	sort.Strings(names)
	return names, nil
}

// sortByAttr orders names by each item's smallest value of attr (ties by
// name), in place, dropping the items that lack the attribute as real
// SimpleDB does: the sort clause of both query languages.
func sortByAttr(v *view, names []string, attr string, desc bool) []string {
	keys := make(map[string]string, len(names))
	kept := names[:0]
	for _, item := range names {
		if val, ok := minAttrValue(v.items[item], attr); ok {
			keys[item] = val
			kept = append(kept, item)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		ki, kj := keys[kept[i]], keys[kept[j]]
		if ki != kj {
			return (ki > kj) == desc
		}
		return kept[i] < kept[j]
	})
	return kept
}

// minAttrValue returns the lexicographically smallest value of attr on the
// item, for deterministic multi-valued sorting.
func minAttrValue(attrs []Attr, name string) (string, bool) {
	best, found := "", false
	for _, a := range attrs {
		if a.Name != name {
			continue
		}
		if !found || a.Value < best {
			best, found = a.Value, true
		}
	}
	return best, found
}

// QueryResult is one page of item names.
type QueryResult struct {
	ItemNames []string
	NextToken string
}

// QueryAttrResult is one page of items with attributes.
type QueryAttrResult struct {
	Items     []Item
	NextToken string
}

// Query returns the names of items matching expr, at most maxResults
// (default and cap QueryPageLimit) per page. An empty nextToken starts a new
// query; pass the returned NextToken to continue. Pagination is pinned to
// the replica that served the first page so one logical query observes one
// snapshot.
func (s *Service) Query(domainName, expr string, maxResults int, nextToken string) (*QueryResult, error) {
	names, _, token, err := s.query("Query", domainName, expr, maxResults, nextToken, nil)
	if err != nil {
		return nil, err
	}
	return &QueryResult{ItemNames: names, NextToken: token}, nil
}

// QueryWithAttributes is Query returning each matching item's attributes,
// optionally restricted to attrNames (nil means all).
func (s *Service) QueryWithAttributes(domainName, expr string, attrNames []string, maxResults int, nextToken string) (*QueryAttrResult, error) {
	want := func(string) bool { return true }
	if len(attrNames) > 0 {
		want = func(name string) bool { return slices.Contains(attrNames, name) }
	}
	_, items, token, err := s.query("QueryWithAttributes", domainName, expr, maxResults, nextToken, want)
	if err != nil {
		return nil, err
	}
	return &QueryAttrResult{Items: items, NextToken: token}, nil
}

// query is the bracket language's engine: one page of expr's matches, with
// the attributes want keeps (nil: names only).
func (s *Service) query(op, domainName, expr string, maxResults int, nextToken string, want func(string) bool) ([]string, []Item, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, invalid := parseQuery(expr)
	r, err := s.begin(op, domainName, nextToken, invalid)
	if err != nil {
		return nil, nil, "", err
	}
	if maxResults <= 0 || maxResults > QueryPageLimit {
		maxResults = QueryPageLimit
	}
	all, err := evalQuery(r.v, q)
	if err != nil {
		return nil, nil, "", opErr(op, domainName, "", fmt.Errorf("%w: %w", ErrInvalidQuery, err))
	}
	page, items, token := s.finish(r, all, maxResults, want, false)
	return page, items, token, nil
}

// pagedRead is one admitted request of the frame Query, QueryWithAttributes
// and Select share: the replica view serving it, and where in the match list
// its page starts.
type pagedRead struct {
	v               *view
	replica, offset int
}

// begin is the front half of that frame: fault check → meter → the replica
// the token pins (a random one for a first page) → drain. A malformed
// expression (invalid) is refused here: billed like any request, before the
// token is looked at. Caller holds s.mu.
func (s *Service) begin(op, domainName, nextToken string, invalid error) (pagedRead, error) {
	d, ok := s.domains[domainName]
	if !ok {
		return pagedRead{}, opErr(op, domainName, "", ErrNoSuchDomain)
	}
	failErr, ackLoss := s.checkFault(op, domainName, "")
	if failErr != nil {
		return pagedRead{}, failErr
	}
	s.cfg.Meter.Op(billing.SimpleDB, op, billing.TierBox)
	if ackLoss {
		return pagedRead{}, opErr(op, domainName, "", awserr.ErrRequestTimeout)
	}
	if invalid != nil {
		return pagedRead{}, opErr(op, domainName, "", fmt.Errorf("%w: %w", ErrInvalidQuery, invalid))
	}
	replica, offset, err := decodeToken(nextToken)
	if err != nil {
		return pagedRead{}, opErr(op, domainName, "", err)
	}
	if nextToken == "" {
		replica = s.cfg.RNG.Intn(len(d.views))
	}
	r := pagedRead{d.views[replica%len(d.views)], replica, offset}
	s.drain(r.v)
	return r, nil
}

// finish is the back half: the match list cut to the page the token's offset
// starts, each item projected to the attributes want keeps (nil: none are
// read, the names are the page), the response's bytes metered out. omitBare
// drops an item none of whose attributes was wanted, unbilled.
func (s *Service) finish(r pagedRead, names []string, pageSize int, want func(attr string) bool, omitBare bool) (page []string, items []Item, token string) {
	offset := min(r.offset, len(names))
	page = names[offset:]
	if len(page) > pageSize {
		page = page[:pageSize]
		token = encodeToken(r.replica, offset+pageSize)
	}
	var outBytes int64
	for _, name := range page {
		if want != nil {
			item := Item{Name: name}
			for _, a := range r.v.items[name] {
				if want(a.Name) {
					item.Attrs = append(item.Attrs, a)
					outBytes += int64(len(a.Name) + len(a.Value))
				}
			}
			if omitBare && len(item.Attrs) == 0 {
				continue
			}
			items = append(items, item)
		}
		outBytes += int64(len(name))
	}
	s.cfg.Meter.Out(billing.SimpleDB, outBytes)
	return page, items, token
}

func encodeToken(replica, offset int) string {
	return strconv.Itoa(replica) + ":" + strconv.Itoa(offset)
}

func decodeToken(tok string) (replica, offset int, err error) {
	if tok == "" {
		return 0, 0, nil
	}
	parts := strings.SplitN(tok, ":", 2)
	if len(parts) != 2 {
		return 0, 0, ErrInvalidNextToken
	}
	replica, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, ErrInvalidNextToken
	}
	offset, err = strconv.Atoi(parts[1])
	if err != nil || offset < 0 || replica < 0 {
		return 0, 0, ErrInvalidNextToken
	}
	return replica, offset, nil
}
