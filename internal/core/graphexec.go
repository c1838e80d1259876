package core

import (
	"slices"

	"passcloud/internal/prov"
)

// graphExec runs the refs pipeline (NativeRefs) on materialized graphs: a
// scan-backed store's repository graph, one part, or the shard router's
// member graphs, one part per shard, where hide (when set) drops part i's
// copy of an object — a migration window's non-authoritative side. Every
// primitive reads the parts' own indexes: records, inputs and child lists by
// ref, attribute values by their postings (prov.Graph.Posting, built once
// per graph and carried through its patches), edge sources by a prefix's key
// range. Only the unfiltered listing ranges every subject. graphExec itself
// retains nothing. A part holds whole items, so a subject is matched on the
// part it is found on.
type graphExec struct {
	parts []*prov.Graph
	hide  func(part int, object prov.ObjectID) bool
}

// GraphEntries answers q on parts through the refs pipeline: ref-sorted, one
// entry per ref, with records under ProjectFull — shared with the parts, so
// read-only. hide may be nil.
func GraphEntries(parts []*prov.Graph, hide func(part int, object prov.ObjectID) bool, q prov.Query) []Entry {
	x := graphExec{parts, hide}
	refs, _ := NativeRefs(x, q) // no primitive fails
	prov.SortRefs(refs)
	out := make([]Entry, len(refs))
	for i, r := range refs {
		out[i].Ref = r
		if q.Projection == prov.ProjectFull {
			out[i].Records = x.records(r)
		}
	}
	return out
}

func (x graphExec) shown(part int, ref prov.Ref) bool {
	return x.hide == nil || !x.hide(part, ref.Object)
}

// records returns ref's records on the parts that show it: that part's own
// slice when only one does.
func (x graphExec) records(ref prov.Ref) []prov.Record {
	var out []prov.Record
	for i, g := range x.parts {
		if rs := g.Records(ref); len(rs) > 0 && x.shown(i, ref) {
			if out != nil {
				rs = append(out[:len(out):len(out)], rs...)
			}
			out = rs
		}
	}
	return out
}

func (x graphExec) InstancesOf(tool string) ([]prov.Ref, error) {
	return x.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: tool}})
}

// MatchAttrs finds the shown subjects whose records satisfy every filter:
// on each part, the candidates are the smallest of the filters' postings,
// and only they are matched; without filters every subject is one.
func (x graphExec) MatchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error) {
	var out []prov.Ref
	for i, g := range x.parts {
		if len(filters) == 0 {
			for s := range g.SubjectSeq() {
				if x.shown(i, s) {
					out = append(out, s)
				}
			}
			continue
		}
		var smallest prov.Posting
		for k, f := range filters {
			if p := g.Posting(f.Attr, f.Value); k == 0 || p.Len() < smallest.Len() {
				smallest = p
			}
		}
		for s := range smallest.All() {
			if x.shown(i, s) && MatchAll(g.Records(s), filters) {
				out = append(out, s)
			}
		}
	}
	if len(x.parts) > 1 {
		out = DedupeRefs(out)
	}
	return out, nil
}

func (x graphExec) ListRefs() ([]prov.Ref, error) { return x.MatchAttrs(nil) }

func (x graphExec) DependentsOf(refs []prov.Ref, prefix string, riding []prov.AttrFilter) ([]prov.Ref, error) {
	var out []prov.Ref
	for i, g := range x.parts {
		for _, r := range refs {
			for _, c := range g.ChildList(r) {
				if x.shown(i, c) && c.HasPrefix(prefix) && MatchAll(g.Records(c), riding) {
					out = append(out, c)
				}
			}
		}
	}
	return DedupeRefs(out), nil
}

// DependentsOfPrefix reads the child lists of every edge source under
// prefix, edge-only refs included, as the starts-with query matches inputs.
func (x graphExec) DependentsOfPrefix(prefix string) ([]prov.Ref, error) {
	var srcs []prov.Ref
	for _, g := range x.parts {
		srcs = slices.AppendSeq(srcs, g.EdgeSourcesWithPrefix(prefix))
	}
	return x.DependentsOf(srcs, "", nil)
}

func (x graphExec) FetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error) {
	return slices.DeleteFunc(refs, func(r prov.Ref) bool { return !MatchAll(x.records(r), filters) }), nil
}

func (x graphExec) InputsOf(refs []prov.Ref) ([]prov.Ref, error) {
	var out []prov.Ref
	for _, r := range refs {
		out = prov.AppendInputs(out, x.records(r))
	}
	return DedupeRefs(out), nil
}

func (x graphExec) SeedsOf(q prov.Query) ([]prov.Ref, error) {
	return NativeRefs(x, StripTraversal(q))
}
