package sdb

// Model-based property tests: the indexed query engine is checked against a
// brute-force reference evaluation over randomly generated domains and
// randomly generated (valid) query expressions. Any divergence between the
// two is a bug in the index, the parser, or the evaluator.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/sim"
)

// modelItem mirrors a stored item for the reference evaluation.
type modelItem struct {
	name  string
	attrs []Attr
}

// refComparison evaluates one comparison against one value, mirroring the
// documented operator semantics.
func refComparison(op, operand, value string) bool {
	switch op {
	case "=":
		return operand == value
	case "!=":
		return operand != value
	case "<":
		return operand < value
	case "<=":
		return operand <= value
	case ">":
		return operand > value
	case ">=":
		return operand >= value
	case "starts-with":
		return strings.HasPrefix(operand, value)
	case "does-not-start-with":
		return !strings.HasPrefix(operand, value)
	default:
		return false
	}
}

// refTerm is one comparison of a reference predicate; and says how it joins
// the comparisons to its left (ignored on the first term).
type refTerm struct {
	and       bool
	op, value string
}

// refPred is the reference form of one bracketed predicate. The grammar has
// no precedence: comparisons fold left to right.
type refPred struct {
	attr  string
	terms []refTerm
}

// matches: does some single value of attr satisfy the folded comparisons?
func (p refPred) matches(attrs []Attr) bool {
	for _, a := range attrs {
		if a.Name != p.attr {
			continue
		}
		ok := false
		for i, c := range p.terms {
			m := refComparison(c.op, a.Value, c.value)
			switch {
			case i == 0:
				ok = m
			case c.and:
				ok = ok && m
			default:
				ok = ok || m
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// lookupShape reports whether the predicate is a disjunction of equalities —
// the one shape the engine may answer from the index without walking values.
func (p refPred) lookupShape() bool {
	for i, c := range p.terms {
		if c.op != "=" || (i > 0 && c.and) {
			return false
		}
	}
	return true
}

func (p refPred) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i, c := range p.terms {
		if i > 0 {
			if c.and {
				b.WriteString(" and ")
			} else {
				b.WriteString(" or ")
			}
		}
		fmt.Fprintf(&b, "'%s' %s %s", p.attr, c.op, QuoteString(c.value))
	}
	b.WriteString("]")
	return b.String()
}

// refQuery is a chain of predicates folded left to right by set operators;
// ops[i] joins preds[i+1] to everything before it.
type refQuery struct {
	preds []refPred
	ops   []string
}

func (q refQuery) matches(attrs []Attr) bool {
	ok := q.preds[0].matches(attrs)
	for i, op := range q.ops {
		m := q.preds[i+1].matches(attrs)
		switch op {
		case "intersection":
			ok = ok && m
		case "union":
			ok = ok || m
		case "not":
			ok = ok && !m
		}
	}
	return ok
}

func (q refQuery) String() string {
	var b strings.Builder
	b.WriteString(q.preds[0].String())
	for i, op := range q.ops {
		b.WriteString(" " + op + " " + q.preds[i+1].String())
	}
	return b.String()
}

// Small alphabets, so collisions (shared values, multi-valued attributes)
// actually happen; "input" has a wide pool like the attribute production
// sends its long equality chains over.
var (
	modelAttrs  = []string{"color", "size", "year", "input"}
	modelValues = []string{"red", "blue", "green", "small", "large", "1999", "2005", "2009"}
	modelOps    = []string{"=", "!=", "<", "<=", ">", ">=", "starts-with", "does-not-start-with"}
)

// genValue draws a value for attr. With absent set it may return a literal
// no item ever carries.
func genValue(rng *sim.RNG, attr string, absent bool) string {
	if absent && rng.Intn(5) == 0 {
		return fmt.Sprintf("absent%d", rng.Intn(4))
	}
	if attr == "input" {
		return fmt.Sprintf("in%02d", rng.Intn(60))
	}
	return modelValues[rng.Intn(len(modelValues))]
}

func genAttr(rng *sim.RNG) Attr {
	name := modelAttrs[rng.Intn(len(modelAttrs))]
	return Attr{Name: name, Value: genValue(rng, name, false)}
}

// genDomain builds a random set of items.
func genDomain(rng *sim.RNG, n int) []modelItem {
	items := make([]modelItem, 0, n)
	for i := 0; i < n; i++ {
		item := modelItem{name: fmt.Sprintf("item%03d", i)}
		// Deduplicate (name,value) pairs as the service does.
		for a := 1 + rng.Intn(5); a > 0; a-- {
			if pair := genAttr(rng); !containsAttr(item.attrs, pair) {
				item.attrs = append(item.attrs, pair)
			}
		}
		items = append(items, item)
	}
	return items
}

// genPredicate builds a random single-attribute predicate in one of the
// shapes the engine distinguishes: an equality chain of 1–40 terms with
// duplicate and absent literals (what sdbprov's chunked dependency queries
// send), an `or` chain that mixes `=` with other operators, a chain with an
// `and` somewhere in it, and a short free mix.
func genPredicate(rng *sim.RNG) refPred {
	p := refPred{attr: modelAttrs[rng.Intn(len(modelAttrs))]}
	shape := rng.Intn(4)
	n := 1 + rng.Intn(4)
	if shape == 0 {
		n = 1 + rng.Intn(40)
	}
	for i := 0; i < n; i++ {
		c := refTerm{op: "=", value: genValue(rng, p.attr, true)}
		switch shape {
		case 1: // equalities with other operators among them, all or-joined
			if rng.Intn(2) == 0 {
				c.op = modelOps[rng.Intn(len(modelOps))]
			}
		case 2: // equalities, some and-joined
			c.and = rng.Intn(2) == 0
		case 3:
			c.op = modelOps[rng.Intn(len(modelOps))]
			c.and = rng.Intn(2) == 0
		}
		p.terms = append(p.terms, c)
	}
	return p
}

// genQuery chains one to four predicates over random set operators.
func genQuery(rng *sim.RNG) refQuery {
	setOps := []string{"intersection", "union", "not"}
	q := refQuery{preds: []refPred{genPredicate(rng)}}
	for n := rng.Intn(4); n > 0; n-- {
		q.preds = append(q.preds, genPredicate(rng))
		q.ops = append(q.ops, setOps[rng.Intn(len(setOps))])
	}
	return q
}

// refNames is the brute-force oracle: every item checked on its own.
func refNames(items map[string][]Attr, q refQuery) []string {
	want := []string{}
	for name, attrs := range items {
		if q.matches(attrs) {
			want = append(want, name)
		}
	}
	sort.Strings(want)
	return want
}

// mutate applies one random write — a put (with and without Replace), an
// attribute delete (by pair and by name), or a whole-item delete — to the
// service and to the model, which restates the documented semantics.
func mutate(rng *sim.RNG, svc *Service, model map[string][]Attr) error {
	item := fmt.Sprintf("item%03d", rng.Intn(80))
	switch rng.Intn(4) {
	case 0: // whole item
		delete(model, item)
		return svc.DeleteAttributes("d", item, nil)
	case 1: // some attributes, by (name, value) or by name alone
		var specs []Attr
		for n := 1 + rng.Intn(2); n > 0; n-- {
			spec := genAttr(rng)
			if rng.Intn(2) == 0 {
				spec.Value = ""
			}
			specs = append(specs, spec)
		}
		var kept []Attr
		for _, a := range model[item] {
			if !matchesDelete(a, specs) {
				kept = append(kept, a)
			}
		}
		if model[item] = kept; len(kept) == 0 {
			delete(model, item)
		}
		return svc.DeleteAttributes("d", item, specs)
	default:
		var put []ReplaceableAttr
		for n := 1 + rng.Intn(3); n > 0; n-- {
			a := genAttr(rng)
			put = append(put, ReplaceableAttr{Name: a.Name, Value: a.Value, Replace: rng.Intn(2) == 0})
		}
		// Replace drops the stored values of that name, not the call's own.
		var next []Attr
		for _, a := range model[item] {
			replaced := false
			for _, ra := range put {
				replaced = replaced || (ra.Replace && ra.Name == a.Name)
			}
			if !replaced {
				next = append(next, a)
			}
		}
		for _, ra := range put {
			if pair := (Attr{Name: ra.Name, Value: ra.Value}); !containsAttr(next, pair) {
				next = append(next, pair)
			}
		}
		model[item] = next
		return svc.PutAttributes("d", item, put)
	}
}

// TestQueryMatchesReferenceModelQuick interleaves random writes with random
// queries on one and on three replicas under a propagation delay, and holds
// the engine to the brute-force oracle at two points: mid-propagation, each
// replica's answer must equal the oracle over that replica's own items (the
// index never disagrees with the items it indexes, however stale both are);
// after the propagation horizon, the paged public Query must equal the
// oracle over the model.
func TestQueryMatchesReferenceModelQuick(t *testing.T) {
	const maxDelay = 2 * time.Second
	for _, replicas := range []int{1, 3} {
		f := func(seed int64) bool {
			rng := sim.NewRNG(seed)
			clock := sim.NewVirtualClock()
			svc := New(Config{
				Replicas: replicas,
				MinDelay: maxDelay / 10,
				MaxDelay: maxDelay,
				Clock:    clock,
				RNG:      sim.NewRNG(seed + 1),
				Meter:    &billing.Meter{},
			})
			if err := svc.CreateDomain("d"); err != nil {
				return false
			}
			model := make(map[string][]Attr)
			for _, item := range genDomain(rng, 30+rng.Intn(40)) {
				ras := make([]ReplaceableAttr, len(item.attrs))
				for i, a := range item.attrs {
					ras[i] = ReplaceableAttr{Name: a.Name, Value: a.Value}
				}
				if err := svc.PutAttributes("d", item.name, ras); err != nil {
					return false
				}
				model[item.name] = item.attrs
			}

			for round := 0; round < 8; round++ {
				for n := rng.Intn(6); n > 0; n-- {
					if err := mutate(rng, svc, model); err != nil {
						t.Logf("mutate: %v", err)
						return false
					}
				}
				q := genQuery(rng)
				expr := q.String()
				parsed, err := parseQuery(expr)
				if err != nil {
					t.Logf("parse %q: %v", expr, err)
					return false
				}
				for i, p := range append([]*predicate{parsed.first}, predsOf(parsed.rest)...) {
					if lookup := p.equals != nil; lookup != q.preds[i].lookupShape() || (lookup && len(p.equals) != len(q.preds[i].terms)) {
						t.Logf("expr %q: predicate %d lookup=%v over %d literals, want lookup=%v over %d",
							expr, i, lookup, len(p.equals), q.preds[i].lookupShape(), len(q.preds[i].terms))
						return false
					}
				}

				// Mid-propagation: replicas disagree with each other, never
				// with themselves.
				clock.Advance(time.Duration(rng.Int63() % int64(maxDelay)))
				svc.mu.Lock()
				for i, v := range svc.domains["d"].views {
					svc.drain(v)
					got, err := evalQuery(v, parsed)
					if want := refNames(v.items, q); err != nil || !reflect.DeepEqual(got, want) {
						t.Logf("expr %q on replica %d: %v\n got  %v\n want %v", expr, i, err, got, want)
						svc.mu.Unlock()
						return false
					}
				}
				svc.mu.Unlock()

				// Converged: the public call, across pagination.
				clock.Advance(maxDelay)
				got := []string{}
				for token := ""; ; {
					res, err := svc.Query("d", expr, 7, token)
					if err != nil {
						t.Logf("query %q failed: %v", expr, err)
						return false
					}
					got = append(got, res.ItemNames...)
					if token = res.NextToken; token == "" {
						break
					}
				}
				if want := refNames(model, q); !reflect.DeepEqual(got, want) {
					t.Logf("expr %q:\n got  %v\n want %v", expr, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("replicas=%d: %v", replicas, err)
		}
	}
}

func predsOf(terms []setTerm) []*predicate {
	out := make([]*predicate, len(terms))
	for i, term := range terms {
		out[i] = term.pred
	}
	return out
}

func TestSelectMatchesReferenceModelQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		items := genDomain(rng, 25+rng.Intn(30))

		svc := New(Config{
			Replicas: 1,
			Clock:    sim.NewVirtualClock(),
			RNG:      sim.NewRNG(seed + 1),
			Meter:    &billing.Meter{},
		})
		if err := svc.CreateDomain("d"); err != nil {
			return false
		}
		for _, item := range items {
			ras := make([]ReplaceableAttr, len(item.attrs))
			for i, a := range item.attrs {
				ras[i] = ReplaceableAttr{Name: a.Name, Value: a.Value}
			}
			if err := svc.PutAttributes("d", item.name, ras); err != nil {
				return false
			}
		}

		values := []string{"red", "blue", "1999", "2009", "small"}
		for trial := 0; trial < 5; trial++ {
			v1 := values[rng.Intn(len(values))]
			v2 := values[rng.Intn(len(values))]
			expr := fmt.Sprintf(
				"select itemName() from d where color = '%s' or (year > '%s' and size is not null)", v1, v2)

			var want []string
			for _, item := range items {
				colorMatch := false
				yearMatch := false
				sizePresent := false
				for _, a := range item.attrs {
					if a.Name == "color" && a.Value == v1 {
						colorMatch = true
					}
					if a.Name == "year" && a.Value > v2 {
						yearMatch = true
					}
					if a.Name == "size" {
						sizePresent = true
					}
				}
				if colorMatch || (yearMatch && sizePresent) {
					want = append(want, item.name)
				}
			}
			sort.Strings(want)

			var got []string
			token := ""
			for {
				res, err := svc.Select(expr, token)
				if err != nil {
					t.Logf("select %q failed: %v", expr, err)
					return false
				}
				for _, it := range res.Items {
					got = append(got, it.Name)
				}
				if res.NextToken == "" {
					break
				}
				token = res.NextToken
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Logf("expr %q:\n got  %v\n want %v", expr, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
