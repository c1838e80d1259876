package sdb

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"passcloud/internal/cloud/billing"
)

// This file implements the SimpleDB Select language (paper §2.2: "SELECT
// provides functionality similar to QueryWithAttributes, with the main
// difference being that the queries are expressed in the standard SQL
// form"):
//
//	select (*|itemName()|count(*)|attr, attr, ...) from domain
//	    [where expr] [order by attr|itemName() [asc|desc]] [limit n]
//
// where expr supports comparisons (=, !=, <, <=, >, >=, like), between, in,
// is (not) null, every(attr), not, and/or with parentheses. Attribute names
// are bare words; values are single-quoted strings compared lexicographically.
//
// Multi-valued semantics follow the AWS documentation: a comparison is
// satisfied if any value of the attribute satisfies it, except inside
// every(), which requires all values to satisfy it.

// selectStmt is a parsed select statement.
type selectStmt struct {
	outputStar  bool
	outputName  bool // itemName()
	outputCount bool // count(*)
	outputAttrs []string
	domain      string
	where       selExpr // nil means all items
	orderBy     string  // attribute name, or "" for none
	orderByName bool    // order by itemName()
	orderDesc   bool
	limit       int // 0 means unset
}

// selExpr evaluates against one item (name + attributes).
type selExpr interface {
	match(name string, attrs []Attr) bool
}

type selAnd struct{ l, r selExpr }

func (e selAnd) match(n string, a []Attr) bool { return e.l.match(n, a) && e.r.match(n, a) }

type selOr struct{ l, r selExpr }

func (e selOr) match(n string, a []Attr) bool { return e.l.match(n, a) || e.r.match(n, a) }

type selNot struct{ x selExpr }

func (e selNot) match(n string, a []Attr) bool { return !e.x.match(n, a) }

// selComp is a comparison over one operand.
type selComp struct {
	attr     string // "" means itemName()
	itemName bool
	every    bool
	op       string   // =, !=, <, <=, >, >=, like, between, in, isnull, isnotnull
	value    string   // primary comparison value
	value2   string   // between upper bound
	values   []string // in list
}

func (c selComp) match(name string, attrs []Attr) bool {
	if c.itemName {
		return c.evalOne(name)
	}
	switch c.op {
	case "isnull":
		return !hasAttr(attrs, c.attr)
	case "isnotnull":
		return hasAttr(attrs, c.attr)
	}
	found := false
	all := true
	any := false
	for _, a := range attrs {
		if a.Name != c.attr {
			continue
		}
		found = true
		if c.evalOne(a.Value) {
			any = true
		} else {
			all = false
		}
	}
	if !found {
		return false
	}
	if c.every {
		return all
	}
	return any
}

func (c selComp) evalOne(v string) bool {
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
	case "like":
		return likeMatch(v, c.value)
	case "between":
		return v >= c.value && v <= c.value2
	case "in":
		for _, x := range c.values {
			if v == x {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// likeMatch implements SQL LIKE with % wildcards (no _ support, matching
// SimpleDB).
func likeMatch(v, pattern string) bool {
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return v == pattern
	}
	if !strings.HasPrefix(v, parts[0]) {
		return false
	}
	v = v[len(parts[0]):]
	for i := 1; i < len(parts)-1; i++ {
		idx := strings.Index(v, parts[i])
		if idx < 0 {
			return false
		}
		v = v[idx+len(parts[i]):]
	}
	return strings.HasSuffix(v, parts[len(parts)-1])
}

func hasAttr(attrs []Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// selectParser consumes tokens.
type selectParser struct {
	toks []token
	pos  int
}

func (p *selectParser) peek() token { return p.toks[p.pos] }

func (p *selectParser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *selectParser) expectWord(word string) error {
	t := p.advance()
	if t.kind != tokWord || !strings.EqualFold(t.text, word) {
		return fmt.Errorf("expected %q, got %q at %d", word, t.text, t.pos)
	}
	return nil
}

func (p *selectParser) expect(kind tokenKind) (token, error) {
	t := p.advance()
	if t.kind != kind {
		return t, fmt.Errorf("expected %v, got %v %q at %d", kind, t.kind, t.text, t.pos)
	}
	return t, nil
}

// parseSelect parses a complete select statement.
func parseSelect(src string) (*selectStmt, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &selectParser{toks: toks}
	st := &selectStmt{}

	if err := p.expectWord("select"); err != nil {
		return nil, err
	}
	if err := p.parseOutput(st); err != nil {
		return nil, err
	}
	if err := p.expectWord("from"); err != nil {
		return nil, err
	}
	domTok := p.advance()
	if domTok.kind != tokWord && domTok.kind != tokString {
		return nil, fmt.Errorf("expected domain name, got %q at %d", domTok.text, domTok.pos)
	}
	st.domain = domTok.text

	for {
		t := p.peek()
		if t.kind != tokWord {
			break
		}
		switch strings.ToLower(t.text) {
		case "where":
			p.advance()
			st.where, err = p.parseOr()
			if err != nil {
				return nil, err
			}
		case "order":
			p.advance()
			if err := p.expectWord("by"); err != nil {
				return nil, err
			}
			key := p.advance()
			switch {
			case key.kind == tokWord && strings.EqualFold(key.text, "itemname"):
				if err := p.parseEmptyParens(); err != nil {
					return nil, err
				}
				st.orderByName = true
			case key.kind == tokWord || key.kind == tokString:
				st.orderBy = key.text
			default:
				return nil, fmt.Errorf("expected sort key, got %q at %d", key.text, key.pos)
			}
			if t := p.peek(); t.kind == tokWord {
				switch strings.ToLower(t.text) {
				case "asc":
					p.advance()
				case "desc":
					p.advance()
					st.orderDesc = true
				}
			}
		case "limit":
			p.advance()
			numTok := p.advance()
			n, err := strconv.Atoi(numTok.text)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("invalid limit %q at %d", numTok.text, numTok.pos)
			}
			st.limit = n
		default:
			return nil, fmt.Errorf("unexpected %q at %d", t.text, t.pos)
		}
	}
	if _, err := p.expect(tokEOF); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *selectParser) parseOutput(st *selectStmt) error {
	t := p.advance()
	switch {
	case t.kind == tokStar:
		st.outputStar = true
		return nil
	case t.kind == tokWord && strings.EqualFold(t.text, "itemname"):
		if err := p.parseEmptyParens(); err != nil {
			return err
		}
		st.outputName = true
		return nil
	case t.kind == tokWord && strings.EqualFold(t.text, "count"):
		if _, err := p.expect(tokLParen); err != nil {
			return err
		}
		if _, err := p.expect(tokStar); err != nil {
			return err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		st.outputCount = true
		return nil
	case t.kind == tokWord || t.kind == tokString:
		st.outputAttrs = append(st.outputAttrs, t.text)
		for p.peek().kind == tokComma {
			p.advance()
			a := p.advance()
			if a.kind != tokWord && a.kind != tokString {
				return fmt.Errorf("expected attribute name, got %q at %d", a.text, a.pos)
			}
			st.outputAttrs = append(st.outputAttrs, a.text)
		}
		return nil
	default:
		return fmt.Errorf("expected output list, got %q at %d", t.text, t.pos)
	}
}

func (p *selectParser) parseEmptyParens() error {
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	return nil
}

func (p *selectParser) parseOr() (selExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokWord && strings.EqualFold(t.text, "or") {
			p.advance()
			right, err := p.parseAnd()
			if err != nil {
				return nil, err
			}
			left = selOr{l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *selectParser) parseAnd() (selExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokWord && strings.EqualFold(t.text, "and") {
			p.advance()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = selAnd{l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *selectParser) parseUnary() (selExpr, error) {
	t := p.peek()
	if t.kind == tokWord && strings.EqualFold(t.text, "not") {
		p.advance()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return selNot{x: inner}, nil
	}
	if t.kind == tokLParen {
		p.advance()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseComparison()
}

func (p *selectParser) parseComparison() (selExpr, error) {
	comp := selComp{}

	t := p.advance()
	switch {
	case t.kind == tokWord && strings.EqualFold(t.text, "every"):
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		a := p.advance()
		if a.kind != tokWord && a.kind != tokString {
			return nil, fmt.Errorf("expected attribute in every(), got %q at %d", a.text, a.pos)
		}
		comp.attr = a.text
		comp.every = true
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	case t.kind == tokWord && strings.EqualFold(t.text, "itemname"):
		if err := p.parseEmptyParens(); err != nil {
			return nil, err
		}
		comp.itemName = true
	case t.kind == tokWord || t.kind == tokString:
		comp.attr = t.text
	default:
		return nil, fmt.Errorf("expected operand, got %q at %d", t.text, t.pos)
	}

	opTok := p.advance()
	switch {
	case opTok.kind == tokOp:
		comp.op = opTok.text
		v, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		comp.value = v.text
	case opTok.kind == tokWord && strings.EqualFold(opTok.text, "like"):
		comp.op = "like"
		v, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		comp.value = v.text
	case opTok.kind == tokWord && strings.EqualFold(opTok.text, "between"):
		comp.op = "between"
		lo, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("and"); err != nil {
			return nil, err
		}
		hi, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		comp.value, comp.value2 = lo.text, hi.text
	case opTok.kind == tokWord && strings.EqualFold(opTok.text, "in"):
		comp.op = "in"
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		for {
			v, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			comp.values = append(comp.values, v.text)
			t := p.advance()
			if t.kind == tokRParen {
				break
			}
			if t.kind != tokComma {
				return nil, fmt.Errorf("expected ',' or ')', got %q at %d", t.text, t.pos)
			}
		}
	case opTok.kind == tokWord && strings.EqualFold(opTok.text, "is"):
		n := p.advance()
		if n.kind == tokWord && strings.EqualFold(n.text, "null") {
			comp.op = "isnull"
			break
		}
		if n.kind == tokWord && strings.EqualFold(n.text, "not") {
			if err := p.expectWord("null"); err != nil {
				return nil, err
			}
			comp.op = "isnotnull"
			break
		}
		return nil, fmt.Errorf("expected 'null' or 'not null', got %q at %d", n.text, n.pos)
	default:
		return nil, fmt.Errorf("expected comparison operator, got %q at %d", opTok.text, opTok.pos)
	}
	return comp, nil
}

// SelectResult is one page of select results. For count(*) queries Count is
// set and Items is empty.
type SelectResult struct {
	Items     []Item
	Count     int
	IsCount   bool
	NextToken string
}

// Select executes a select expression (the domain is named in the statement,
// as in SQL). Pagination mirrors Query: pass the previous NextToken to
// continue on the same replica snapshot.
func (s *Service) Select(expr string, nextToken string) (*SelectResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// The statement names the domain, so one that does not parse is refused
	// before there is anything to bill.
	st, err := parseSelect(expr)
	if err != nil {
		return nil, opErr("Select", "", "", fmt.Errorf("%w: %w", ErrInvalidQuery, err))
	}
	r, err := s.begin("Select", st.domain, nextToken, nil)
	if err != nil {
		return nil, err
	}
	var names []string
	for name, attrs := range r.v.items {
		if st.where == nil || st.where.match(name, attrs) {
			names = append(names, name)
		}
	}
	if st.outputCount {
		s.cfg.Meter.Out(billing.SimpleDB, 16)
		return &SelectResult{Count: len(names), IsCount: true}, nil
	}
	switch {
	case st.orderBy != "":
		names = sortByAttr(r.v, names, st.orderBy, st.orderDesc)
	case st.orderByName && st.orderDesc:
		sort.Sort(sort.Reverse(sort.StringSlice(names)))
	default:
		sort.Strings(names)
	}
	pageSize := st.limit
	if pageSize <= 0 || pageSize > SelectPageLimit {
		pageSize = SelectPageLimit
	}
	// Output: every attribute, none (itemName()), or the listed ones — and
	// then only the items that have one of them.
	want := func(attr string) bool { return st.outputStar || slices.Contains(st.outputAttrs, attr) }
	_, items, token := s.finish(r, names, pageSize, want, !st.outputStar && !st.outputName)
	return &SelectResult{Items: items, NextToken: token}, nil
}
