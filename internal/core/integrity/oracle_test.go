package integrity_test

// The reference verifier: SubjectHash, VerifyAudit and VerifyStores as
// they read before the audit hashed each subject once, kept verbatim but
// for names, two comments, the predecessor map (a field of oracleAudit
// here, an unexported field of Audit there) and the package qualifiers. The
// production code must agree with it bit for bit: every hash, root,
// count and divergence, in order and with its Detail text.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// oracleSubjectHash is the reference SubjectHash.
func oracleSubjectHash(subject prov.Ref, records []prov.Record) string {
	lines := make([]string, 0, len(records))
	for _, r := range records {
		if r.Attr == integrity.AttrRoot { // defensive: riders are not records
			continue
		}
		lines = append(lines, r.Attr+"\x1f"+r.Value.String())
	}
	sort.Strings(lines)
	h := sha256.New()
	h.Write([]byte(subject.String()))
	h.Write([]byte{'\n'})
	prev := ""
	first := true
	for _, l := range lines {
		if !first && l == prev {
			continue
		}
		first, prev = false, l
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// oracleAudit is an Audit with the reference verifier's predecessor map.
type oracleAudit struct {
	*integrity.Audit
	pred map[prov.Ref][]prov.Record
}

func (a *oracleAudit) predecessors(ref prov.Ref) ([]prov.Record, bool) {
	if a.pred != nil {
		r, ok := a.pred[ref]
		return r, ok
	}
	r, ok := a.Entries[ref]
	return r, ok
}

// oracleVerifyAudit is the reference VerifyAudit.
func oracleVerifyAudit(a *oracleAudit) *integrity.ShardResult {
	for ref, records := range a.Entries {
		a.Entries[ref] = integrity.DedupRecords(records)
	}
	res := &integrity.ShardResult{Shard: a.Shard, Subjects: len(a.Entries)}
	res.Divergences = append(res.Divergences, oracleVerifyChains(a, &res.Detached)...)

	for _, records := range a.Entries {
		res.Records += len(records)
	}
	root, cp, writers := oracleDeriveRoot(a)
	res.Root = root
	res.MultiWriter = writers > 1
	switch {
	case writers == 0:
		if len(a.Entries) > 0 {
			res.Divergences = append(res.Divergences, integrity.Divergence{
				Kind: integrity.CheckpointMissing, Shard: a.Shard,
				Detail: fmt.Sprintf("%d subjects stored but no checkpoint rider found", len(a.Entries)),
			})
		}
	case writers > 1:
	default:
		res.Checkpoint = cp
		if cp.Root != res.Root {
			res.Divergences = append(res.Divergences, integrity.Divergence{
				Kind: integrity.RootMismatch, Shard: a.Shard,
				Detail: fmt.Sprintf("committed root %s (seq %d, %d subjects) != derived root %s (%d subjects)",
					cp.Root, cp.Seq, cp.Count, res.Root, len(a.Entries)),
			})
		}
	}
	oracleSortDivergences(res.Divergences)
	return res
}

func oracleVerifyChains(a *oracleAudit, detached *int) []integrity.Divergence {
	byObject := make(map[prov.ObjectID][]prov.Ref)
	for ref := range a.Entries {
		byObject[ref.Object] = append(byObject[ref.Object], ref)
	}
	var out []integrity.Divergence
	for _, refs := range byObject {
		sort.Slice(refs, func(i, j int) bool { return refs[i].Version < refs[j].Version })
		for _, ref := range refs {
			out = append(out, oracleVerifyLink(a, ref, detached)...)
		}
	}
	return out
}

func oracleVerifyLink(a *oracleAudit, ref prov.Ref, detached *int) []integrity.Divergence {
	var tokens []string
	for _, r := range a.Entries[ref] {
		if r.Attr == integrity.AttrChain {
			tokens = append(tokens, r.Value.String())
		}
	}
	switch {
	case len(tokens) == 0:
		return []integrity.Divergence{{Kind: integrity.ChainMissing, Shard: a.Shard, Subject: ref,
			Detail: "no chain record in stored record set"}}
	case len(tokens) > 1:
		sort.Strings(tokens)
		return []integrity.Divergence{{Kind: integrity.ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("%d chain records stored (want exactly one): %v", len(tokens), tokens)}}
	}
	token := tokens[0]
	if token == integrity.TokenDetached {
		if detached != nil {
			*detached++
		}
		return nil
	}
	if ref.Version == 0 {
		if token != integrity.TokenGenesis {
			return []integrity.Divergence{{Kind: integrity.ChainBreak, Shard: a.Shard, Subject: ref,
				Detail: fmt.Sprintf("version 0 carries chain token %q (want %q)", token, integrity.TokenGenesis)}}
		}
		return nil
	}
	want, ok := integrity.ParseLink(token)
	if !ok {
		return []integrity.Divergence{{Kind: integrity.ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("malformed chain token %q", token)}}
	}
	prev := prov.Ref{Object: ref.Object, Version: ref.Version - 1}
	prevRecords, present := a.predecessors(prev)
	if !present {
		if a.RetainsHistory {
			return []integrity.Divergence{{Kind: integrity.ChainGap, Shard: a.Shard, Subject: ref,
				Detail: fmt.Sprintf("links to %s, which the store no longer holds", prev)}}
		}
		return nil
	}
	if got := oracleSubjectHash(prev, prevRecords); got != want {
		return []integrity.Divergence{{Kind: integrity.ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("links to %s with hash %s, but stored records hash to %s", prev, want, got)}}
	}
	return nil
}

func oracleDeriveRoot(a *oracleAudit) (derived string, committed integrity.Checkpoint, writers int) {
	leaves := make([]string, 0, len(a.Entries))
	for ref, records := range a.Entries {
		leaves = append(leaves, oracleSubjectHash(ref, records))
	}
	latest := make(map[string]integrity.Checkpoint)
	for _, c := range a.Checkpoints {
		if have, seen := latest[c.Writer]; !seen || c.Seq > have.Seq {
			latest[c.Writer] = c
		}
	}
	if len(latest) == 1 {
		for _, c := range latest {
			committed = c
		}
	}
	return integrity.MerkleRoot(leaves), committed, len(latest)
}

func oracleSortDivergences(ds []integrity.Divergence) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Subject != b.Subject {
			if a.Subject.Object != b.Subject.Object {
				return a.Subject.Object < b.Subject.Object
			}
			return a.Subject.Version < b.Subject.Version
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
}

// oracleVerifyStores is the reference VerifyStores.
func oracleVerifyStores(ctx context.Context, stores []integrity.Auditor) (*integrity.Result, error) {
	res := &integrity.Result{}
	audits := make([]*oracleAudit, len(stores))
	for i, st := range stores {
		a, err := st.Audit(ctx)
		if err != nil {
			return nil, fmt.Errorf("integrity: audit shard %d: %w", i, err)
		}
		a.Shard = i
		audits[i] = &oracleAudit{Audit: a}
	}
	var union map[prov.Ref][]prov.Record
	if len(audits) > 1 {
		union = make(map[prov.Ref][]prov.Record)
		for _, a := range audits {
			for ref, records := range a.Entries {
				union[ref] = append(union[ref], records...)
			}
		}
	}
	roots := make([]string, 0, len(audits))
	for _, a := range audits {
		a.pred = union
		sr := oracleVerifyAudit(a)
		res.Shards = append(res.Shards, sr)
		roots = append(roots, sr.Root)
	}
	res.NamespaceRoot = integrity.ComposeRoots(roots)
	return res, nil
}
