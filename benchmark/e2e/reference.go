package e2e

import (
	"sort"
	"strings"

	"passcloud"
)

// reference is the benchmark's own model of the repository: the records of
// one full dump, indexed for a plain breadth-first evaluation of a
// QuerySpec. It shares no code with the system's query planner, so a
// result set the two agree on was computed twice.
type reference struct {
	records  map[passcloud.Ref][]passcloud.Record
	inputs   map[passcloud.Ref][]passcloud.Ref
	children map[passcloud.Ref][]passcloud.Ref
}

func newReference(dump []passcloud.ProvenanceEntry) *reference {
	g := &reference{
		records:  make(map[passcloud.Ref][]passcloud.Record, len(dump)),
		inputs:   make(map[passcloud.Ref][]passcloud.Ref, len(dump)),
		children: make(map[passcloud.Ref][]passcloud.Ref, len(dump)),
	}
	for _, e := range dump {
		g.records[e.Ref] = append(g.records[e.Ref], e.Records...)
		for _, r := range e.Records {
			if r.IsInput {
				g.inputs[e.Ref] = append(g.inputs[e.Ref], r.InputRef)
				g.children[r.InputRef] = append(g.children[r.InputRef], e.Ref)
			}
		}
	}
	return g
}

func (g *reference) has(ref passcloud.Ref, attr, value string) bool {
	for _, r := range g.records[ref] {
		if r.Attr == attr && r.Value == value {
			return true
		}
	}
	return false
}

// matches applies every seed filter of spec to ref.
func (g *reference) matches(ref passcloud.Ref, spec passcloud.QuerySpec) bool {
	if spec.RefPrefix != "" && !strings.HasPrefix(ref.String(), spec.RefPrefix) {
		return false
	}
	if spec.Type != "" && !g.has(ref, "type", spec.Type) {
		return false
	}
	for attr, value := range spec.Attrs {
		if !g.has(ref, attr, value) {
			return false
		}
	}
	if spec.Tool != "" {
		found := false
		for _, in := range g.inputs[ref] {
			if g.has(in, "name", spec.Tool) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// eval answers spec: the seeds its filters select, or — with a direction —
// every version reached from them within Depth edges, seeds excluded
// unless IncludeSeeds. Pagination fields are ignored. The result is
// sorted.
func (g *reference) eval(spec passcloud.QuerySpec) []passcloud.Ref {
	var seeds []passcloud.Ref
	if len(spec.Refs) > 0 {
		for _, r := range spec.Refs {
			if g.matches(r, spec) {
				seeds = append(seeds, r)
			}
		}
	} else {
		for ref := range g.records {
			if g.matches(ref, spec) {
				seeds = append(seeds, ref)
			}
		}
	}
	out := seeds
	if spec.Direction != passcloud.TraverseNone {
		next := g.inputs
		if spec.Direction == passcloud.TraverseDescendants {
			next = g.children
		}
		isSeed := make(map[passcloud.Ref]bool, len(seeds))
		visited := make(map[passcloud.Ref]bool, len(seeds))
		for _, s := range seeds {
			isSeed[s], visited[s] = true, true
		}
		found := make(map[passcloud.Ref]bool)
		out = nil
		frontier := seeds
		for level := 0; len(frontier) > 0 && (spec.Depth == 0 || level < spec.Depth); level++ {
			var reached []passcloud.Ref
			for _, r := range frontier {
				for _, n := range next[r] {
					if !found[n] && (spec.IncludeSeeds || !isSeed[n]) {
						found[n] = true
						out = append(out, n)
					}
					if !visited[n] {
						visited[n] = true
						reached = append(reached, n)
					}
				}
			}
			frontier = reached
		}
	}
	sortRefs(out)
	return out
}

func sortRefs(refs []passcloud.Ref) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Object != refs[j].Object {
			return refs[i].Object < refs[j].Object
		}
		return refs[i].Version < refs[j].Version
	})
}

// sameRefs reports whether got and want hold the same set of refs. want is
// sorted and duplicate-free; got may be in any order and may repeat a ref.
func sameRefs(got, want []passcloud.Ref) bool {
	set := make(map[passcloud.Ref]bool, len(got))
	for _, r := range got {
		set[r] = true
	}
	if len(set) != len(want) {
		return false
	}
	for _, r := range want {
		if !set[r] {
			return false
		}
	}
	return true
}
