package passcloud

import (
	"fmt"
	"iter"
	"reflect"
	"testing"
)

// The paper's fixed query classes as QuerySpecs — what the deprecated
// Client verbs compile to. The rest of the suite asks through these and
// Search; only TestDeprecatedClientVerbsMatchSearch calls the verbs.
func outputsSpec(tool string) QuerySpec {
	return QuerySpec{Tool: tool, Type: "file", RefsOnly: true}
}

func descendantsSpec(tool string) QuerySpec {
	return QuerySpec{Tool: tool, Type: "file", Direction: TraverseDescendants, RefsOnly: true}
}

func ancestorsSpec(ref Ref) QuerySpec {
	return QuerySpec{Refs: []Ref{ref}, Direction: TraverseAncestors, RefsOnly: true}
}

// TestDeprecatedClientVerbsMatchSearch holds each of the six public fixed
// verbs to its QuerySpec: same answer, same metered cloud ops. Two clients
// built from the same seed run the same pipeline and then the same query
// sequence — one through the verbs, one through Search/SearchSeq — so
// cache and planner state advance in lockstep and any op-count difference
// is the verb's own. The query cache is off so every query pays its plan.
func TestDeprecatedClientVerbsMatchSearch(t *testing.T) {
	png := Ref{Object: "/results/trends.png", Version: 0}
	searchRefs := func(spec QuerySpec) func(*Client) (any, error) {
		return func(c *Client) (any, error) {
			res, err := c.Search(ctx, spec)
			if err != nil {
				return nil, err
			}
			refs := make([]Ref, len(res.Entries))
			for i, e := range res.Entries {
				refs[i] = e.Ref
			}
			return refs, nil
		}
	}
	collect := func(seq iter.Seq2[ProvenanceEntry, error]) (any, error) {
		var out []ProvenanceEntry
		for e, err := range seq {
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		return out, nil
	}
	cases := []struct {
		name       string
		verb, spec func(*Client) (any, error)
	}{
		{"OutputsOf",
			func(c *Client) (any, error) { return c.OutputsOf(ctx, "analyze") },
			searchRefs(outputsSpec("analyze"))},
		{"DescendantsOfOutputs",
			func(c *Client) (any, error) { return c.DescendantsOfOutputs(ctx, "analyze") },
			searchRefs(descendantsSpec("analyze"))},
		{"Ancestors",
			func(c *Client) (any, error) { return c.Ancestors(ctx, png) },
			searchRefs(ancestorsSpec(png))},
		{"Dependents",
			func(c *Client) (any, error) { return c.Dependents(ctx, "/census/data.csv") },
			searchRefs(dependentsSpec("/census/data.csv"))},
		{"AllProvenance",
			func(c *Client) (any, error) { return c.AllProvenance(ctx) },
			func(c *Client) (any, error) {
				res, err := c.Search(ctx, QuerySpec{})
				if err != nil {
					return nil, err
				}
				// An uncached S3 scan may yield one subject in pieces.
				all := make(map[Ref][]Record)
				for _, e := range res.Entries {
					all[e.Ref] = append(all[e.Ref], e.Records...)
				}
				return all, nil
			}},
		{"AllProvenanceSeq",
			func(c *Client) (any, error) { return collect(c.AllProvenanceSeq(ctx)) },
			func(c *Client) (any, error) { return collect(c.SearchSeq(ctx, QuerySpec{})) }},
	}

	ops := func(c *Client) int64 {
		u := c.Usage()
		return u.S3Ops + u.SimpleDBOps + u.SQSOps
	}
	for _, arch := range allArchitectures {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/x%d", arch, shards), func(t *testing.T) {
				build := func() *Client {
					c, err := New(Options{Architecture: arch, Seed: 42, Shards: shards, DisableQueryCache: true})
					if err != nil {
						t.Fatal(err)
					}
					runPipeline(t, c)
					return c
				}
				viaVerb, viaSpec := build(), build()
				for _, tc := range cases {
					beforeVerb, beforeSpec := ops(viaVerb), ops(viaSpec)
					got, err := tc.verb(viaVerb)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					want, err := tc.spec(viaSpec)
					if err != nil {
						t.Fatalf("%s via Search: %v", tc.name, err)
					}
					if reflect.ValueOf(want).Len() == 0 {
						t.Fatalf("%s: empty answer proves nothing", tc.name)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s = %v, Search = %v", tc.name, got, want)
					}
					if verbOps, specOps := ops(viaVerb)-beforeVerb, ops(viaSpec)-beforeSpec; verbOps != specOps {
						t.Errorf("%s metered %d cloud ops, its QuerySpec %d", tc.name, verbOps, specOps)
					}
				}
			})
		}
	}
}
