package integrity

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"passcloud/internal/prov"
)

// Auditor is the store-side hook verification runs on: a full dump of the
// committed provenance (decoded records, one entry per subject) together
// with every persisted checkpoint rider the scan encountered. All three
// architecture stores and the SimpleDB provenance layer implement it.
type Auditor interface {
	Audit(ctx context.Context) (*Audit, error)
}

// Audit is one store's verifiable state, as scanned.
type Audit struct {
	// Shard is the store's shard index (0 when unsharded); verification
	// stamps it into every divergence.
	Shard int
	// Entries maps each stored subject to its decoded records.
	Entries map[prov.Ref][]prov.Record
	// Checkpoints are the persisted checkpoint riders, in scan order.
	// Duplicates are expected (one rider per item/object).
	Checkpoints []Checkpoint
	// RetainsHistory reports whether the store keeps every version's
	// records (the SimpleDB designs) or only the latest per S3 key (the
	// S3-only design, whose metadata is overwritten in place). Without
	// history, a missing predecessor is a fact of the architecture, not a
	// divergence.
	RetainsHistory bool
}

// DivergenceKind classifies what verification found.
type DivergenceKind int

// The divergence kinds VerifyAudit reports.
const (
	// ChainBreak: a version's chain token does not match its
	// predecessor's re-derived subject hash — some record of the
	// predecessor (or the token itself) was altered.
	ChainBreak DivergenceKind = iota
	// ChainGap: a version links to a predecessor the store no longer
	// holds, on an architecture that retains history — the predecessor's
	// records were dropped post-commit.
	ChainGap
	// ChainMissing: a stored version carries no chain record at all —
	// the chain record itself was dropped.
	ChainMissing
	// RootMismatch: the Merkle root re-derived from every stored record
	// differs from the writer's highest committed checkpoint — some
	// record in the shard was altered, added or dropped.
	RootMismatch
	// CheckpointMissing: the store holds records but no checkpoint rider
	// survived — the commitments themselves were stripped.
	CheckpointMissing
)

// String names the kind for reports.
func (k DivergenceKind) String() string {
	switch k {
	case ChainBreak:
		return "chain-break"
	case ChainGap:
		return "chain-gap"
	case ChainMissing:
		return "chain-missing"
	case RootMismatch:
		return "root-mismatch"
	case CheckpointMissing:
		return "checkpoint-missing"
	default:
		return fmt.Sprintf("DivergenceKind(%d)", int(k))
	}
}

// Divergence is one verification finding: which record diverged, on which
// shard, and how.
type Divergence struct {
	Kind  DivergenceKind
	Shard int
	// Subject is the object version the finding is anchored to (zero for
	// shard-level findings: RootMismatch, CheckpointMissing).
	Subject prov.Ref
	// Detail explains the finding (expected vs. derived values).
	Detail string
}

// String renders one finding.
func (d Divergence) String() string {
	if d.Subject == (prov.Ref{}) {
		return fmt.Sprintf("shard %d: %s: %s", d.Shard, d.Kind, d.Detail)
	}
	return fmt.Sprintf("shard %d: %s: %s: %s", d.Shard, d.Kind, d.Subject, d.Detail)
}

// ShardResult is one shard's verification outcome.
type ShardResult struct {
	Shard int
	// Subjects and Records count what was scanned.
	Subjects, Records int
	// Root is the Merkle root re-derived from the stored records.
	Root string
	// Checkpoint is the writer's highest committed checkpoint (zero when
	// none survived or writers were multiple).
	Checkpoint Checkpoint
	// MultiWriter reports that more than one writer's checkpoints were
	// found; the root comparison is skipped (each writer commits only to
	// its own writes — see ARCHITECTURE.md), chain checks still run.
	MultiWriter bool
	// Detached counts chain links that could not be verified because the
	// writer attached the object mid-history (informational, not a
	// divergence).
	Detached int
	// Divergences are the findings, subject-sorted.
	Divergences []Divergence
}

// Clean reports a divergence-free shard.
func (r *ShardResult) Clean() bool { return len(r.Divergences) == 0 }

// VerifyAudit re-derives every subject hash and the Merkle root from a
// store's scanned state and returns the shard's result: chain checks per
// object version, then the root check against the highest surviving
// checkpoint.
func VerifyAudit(a *Audit) *ShardResult {
	t := HashSubjects(a)
	return verifyShard(t, []*SubjectTable{t})
}

// SubjectTable is one audit's subject hashes, each subject hashed once:
// chain checks read a predecessor's hash from it and DeriveRoot takes the
// root it folded from the same hashes.
type SubjectTable struct {
	audit    *Audit
	subjects []subjectInfo
	index    map[prov.Ref]int
	// records counts the subjects' records, deduplicated.
	records int
	// root is the Merkle root over every subject's leaf.
	root string
}

// subjectInfo is what the hashing pass learns about one stored subject.
type subjectInfo struct {
	ref     prov.Ref
	records []prov.Record
	hash    digest
	// chains counts the deduplicated set's chain records; chain is the
	// token when there is exactly one.
	chains int
	chain  string
}

// HashSubjects hashes every subject of a once, on up to GOMAXPROCS
// goroutines, and folds the hashes into the shard's Merkle root.
func HashSubjects(a *Audit) *SubjectTable {
	t := &SubjectTable{
		audit:    a,
		subjects: make([]subjectInfo, 0, len(a.Entries)),
		index:    make(map[prov.Ref]int, len(a.Entries)),
	}
	for ref, records := range a.Entries {
		t.index[ref] = len(t.subjects)
		t.subjects = append(t.subjects, subjectInfo{ref: ref, records: records})
	}
	keys := make([]leafKey, len(t.subjects))
	var records atomic.Int64
	forChunks(len(t.subjects), hashChunk, func(lo, hi int) {
		h := lineHashers.Get().(*lineHasher)
		n := 0
		for i := lo; i < hi; i++ {
			s := &t.subjects[i]
			var mayDup bool
			s.hash, mayDup = h.sum(s.ref, s.records)
			n += s.countRecords(mayDup)
			keys[i] = s.hash.leaf()
		}
		lineHashers.Put(h)
		records.Add(int64(n))
	})
	t.records = int(records.Load())
	t.root = keysRoot(keys)
	return t
}

// hashChunk is how many subjects a hashing worker claims at a time:
// enough to amortize the claim, few enough to balance a shard's tail.
const hashChunk = 128

// countRecords counts s's records and chain records as DedupRecords
// leaves them; only a set that may hold a duplicate pays for it.
func (s *subjectInfo) countRecords(mayDup bool) int {
	records := s.records
	if mayDup {
		records = DedupRecords(records)
	}
	for i := range records {
		if records[i].Attr == AttrChain {
			s.chains++
			s.chain = records[i].Value.String()
		}
	}
	return len(records)
}

// Hash returns ref's subject hash, as SubjectHash renders it, and whether
// the audit holds ref.
func (t *SubjectTable) Hash(ref prov.Ref) (string, bool) {
	i, ok := t.index[ref]
	if !ok {
		return "", false
	}
	x := t.subjects[i].hash.hex()
	return string(x[:]), true
}

// forChunks runs fn over [0, n) in chunks of size claimed by up to
// GOMAXPROCS goroutines, and returns once every chunk is done.
func forChunks(n, size int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+size-1)/size)
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(size))) - size
				if lo >= n {
					return
				}
				fn(lo, min(lo+size, n))
			}
		}()
	}
	wg.Wait()
}

// verifyShard checks t's chain links, resolving predecessors through
// tables (t's namespace), then t's root against the highest surviving
// checkpoint.
func verifyShard(t *SubjectTable, tables []*SubjectTable) *ShardResult {
	a := t.audit
	res := &ShardResult{Shard: a.Shard, Subjects: len(t.subjects), Records: t.records}
	res.Divergences = verifyChains(t, tables, &res.Detached)
	root, cp, writers := DeriveRoot(t)
	res.Root = root
	res.MultiWriter = writers > 1
	switch {
	case writers == 0:
		if len(a.Entries) > 0 {
			res.Divergences = append(res.Divergences, Divergence{
				Kind: CheckpointMissing, Shard: a.Shard,
				Detail: fmt.Sprintf("%d subjects stored but no checkpoint rider found", len(a.Entries)),
			})
		}
	case writers > 1:
		// Several writers committed here; each root covers only its own
		// writes, so no single checkpoint matches the union. Chain checks
		// above still hold every record accountable to its predecessor.
	default:
		res.Checkpoint = cp
		if cp.Root != res.Root {
			res.Divergences = append(res.Divergences, Divergence{
				Kind: RootMismatch, Shard: a.Shard,
				Detail: fmt.Sprintf("committed root %s (seq %d, %d subjects) != derived root %s (%d subjects)",
					cp.Root, cp.Seq, cp.Count, res.Root, len(a.Entries)),
			})
		}
	}
	sortDivergences(res.Divergences)
	return res
}

// verifyChains checks the chain link of every version t holds.
func verifyChains(t *SubjectTable, tables []*SubjectTable, detached *int) []Divergence {
	var out []Divergence
	for i := range t.subjects {
		out = append(out, verifyLink(t.audit, &t.subjects[i], tables, detached)...)
	}
	return out
}

// verifyLink checks one version's chain record against its predecessor.
func verifyLink(a *Audit, s *subjectInfo, tables []*SubjectTable, detached *int) []Divergence {
	ref := s.ref
	switch {
	case s.chains == 0:
		return []Divergence{{Kind: ChainMissing, Shard: a.Shard, Subject: ref,
			Detail: "no chain record in stored record set"}}
	case s.chains > 1:
		var tokens []string
		for _, r := range DedupRecords(s.records) {
			if r.Attr == AttrChain {
				tokens = append(tokens, r.Value.String())
			}
		}
		sort.Strings(tokens)
		return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("%d chain records stored (want exactly one): %v", len(tokens), tokens)}}
	}
	token := s.chain
	if token == TokenDetached {
		*detached++
		return nil
	}
	if ref.Version == 0 {
		if token != TokenGenesis {
			return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
				Detail: fmt.Sprintf("version 0 carries chain token %q (want %q)", token, TokenGenesis)}}
		}
		return nil
	}
	want, ok := ParseLink(token)
	if !ok {
		return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("malformed chain token %q", token)}}
	}
	prev := prov.Ref{Object: ref.Object, Version: ref.Version - 1}
	prevHash, present := predecessorHash(prev, tables)
	if !present {
		if a.RetainsHistory {
			return []Divergence{{Kind: ChainGap, Shard: a.Shard, Subject: ref,
				Detail: fmt.Sprintf("links to %s, which the store no longer holds", prev)}}
		}
		// The S3-only design overwrites an object's metadata in place, so
		// superseded file versions legitimately vanish; the surviving
		// version's own hash is still pinned by the root commitment.
		return nil
	}
	if got := prevHash.hex(); string(got[:]) != want {
		return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("links to %s with hash %s, but stored records hash to %s", prev, want, string(got[:]))}}
	}
	return nil
}

// predecessorHash is the subject hash of a chain link's predecessor across
// the namespace's tables. A predecessor one shard holds has that shard's
// hash. Transient ancestors home with the file flush that triggered them,
// so one version can be stored on several shards; it is hashed over the
// union of its stored records.
func predecessorHash(prev prov.Ref, tables []*SubjectTable) (digest, bool) {
	var held *subjectInfo
	for _, t := range tables {
		i, ok := t.index[prev]
		if !ok {
			continue
		}
		if held == nil {
			held = &t.subjects[i]
			continue
		}
		var union []prov.Record
		for _, t := range tables {
			if i, ok := t.index[prev]; ok {
				union = append(union, t.subjects[i].records...)
			}
		}
		h := lineHashers.Get().(*lineHasher)
		d, _ := h.sum(prev, union)
		lineHashers.Put(h)
		return d, true
	}
	if held == nil {
		return digest{}, false
	}
	return held.hash, true
}

// DeriveRoot returns a shard's Merkle root, re-derived from its stored
// records, and picks the checkpoint it must equal: the highest-Seq one,
// when exactly one writer's checkpoints survive. writers counts the
// distinct writers found; committed is set only when that is 1, since
// with several each root covers only its own writer's commits.
func DeriveRoot(t *SubjectTable) (derived string, committed Checkpoint, writers int) {
	latest := make(map[string]Checkpoint)
	for _, c := range t.audit.Checkpoints {
		if have, seen := latest[c.Writer]; !seen || c.Seq > have.Seq {
			latest[c.Writer] = c
		}
	}
	if len(latest) == 1 {
		for _, c := range latest {
			committed = c
		}
	}
	return t.root, committed, len(latest)
}

// sortDivergences orders findings deterministically: by subject, then kind.
func sortDivergences(ds []Divergence) {
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

// Result is a whole namespace's verification outcome: every shard's
// result plus the composed namespace root.
type Result struct {
	Shards []*ShardResult
	// NamespaceRoot composes the per-shard derived roots in shard order.
	NamespaceRoot string
}

// Clean reports a fully divergence-free namespace.
func (r *Result) Clean() bool {
	for _, s := range r.Shards {
		if !s.Clean() {
			return false
		}
	}
	return true
}

// Divergences flattens every shard's findings.
func (r *Result) Divergences() []Divergence {
	var out []Divergence
	for _, s := range r.Shards {
		out = append(out, s.Divergences...)
	}
	return out
}

// VerifyStores audits and verifies each store as one shard (index =
// position) and composes the namespace root. The scans run one after
// another in shard order, so the stores see the same operations in the
// same order whatever the CPU count; hashing shard i overlaps the scan of
// shard i+1. Once every shard is hashed, the shards' chain and root
// checks run in parallel. With more than one shard, a chain link's
// predecessor resolves across every shard's table (see predecessorHash);
// each shard's root still covers exactly its own entries.
func VerifyStores(ctx context.Context, stores []Auditor) (*Result, error) {
	tables := make([]*SubjectTable, len(stores))
	var wg sync.WaitGroup
	defer wg.Wait() // a failed scan returns only after the shards already scanned are hashed
	for i, st := range stores {
		a, err := st.Audit(ctx)
		if err != nil {
			return nil, fmt.Errorf("integrity: audit shard %d: %w", i, err)
		}
		a.Shard = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i] = HashSubjects(a)
		}()
	}
	wg.Wait()
	res := &Result{Shards: make([]*ShardResult, len(tables))}
	forChunks(len(tables), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			res.Shards[i] = verifyShard(tables[i], tables)
		}
	})
	roots := make([]string, len(res.Shards))
	for i, sr := range res.Shards {
		roots[i] = sr.Root
	}
	res.NamespaceRoot = ComposeRoots(roots)
	return res, nil
}

// VerifyObject checks one object's chain through the given entries (its
// stored versions) — the VerifyLineage core, shared with the audit path.
func VerifyObject(object prov.ObjectID, entries map[prov.Ref][]prov.Record, retainsHistory bool, shard int) ([]Divergence, int) {
	sub := make(map[prov.Ref][]prov.Record)
	for ref, records := range entries {
		if ref.Object == object {
			sub[ref] = records
		}
	}
	t := HashSubjects(&Audit{Shard: shard, Entries: sub, RetainsHistory: retainsHistory})
	detached := 0
	ds := verifyChains(t, []*SubjectTable{t}, &detached)
	sortDivergences(ds)
	return ds, detached
}
