// Package integrity makes stored provenance tamper-evident: every object
// version's record set is hash-chained to its predecessor at write time,
// and every store rolls a cheap Merkle commitment (one small root) over
// the record sets it has committed, so an auditor can re-derive the root
// from the stored records and detect any post-commit alteration — a
// flipped byte, a swapped version, a silently dropped record.
//
// The design rides entirely on writes the architectures already perform:
//
//   - The chain is an ordinary provenance record (attribute "x-chain")
//     appended to each version's record set by the PASS layer before
//     flush. Its value embeds the subject hash of the predecessor
//     version's full record set, so rewriting any historical record
//     breaks every later link. The value is memoized per version, so WAL
//     replay and partial-batch retry re-flush byte-identical records —
//     the chain extends, never forks, and nothing is hashed twice.
//
//   - The commitment is a Merkle root over per-subject leaf hashes,
//     tracked by a Ledger the storage layer advances at its true commit
//     point (the SimpleDB batch write, the WAL commit, the S3 PUT). Each
//     committed checkpoint rides as an extra attribute ("x-root") on an
//     item or metadata key the write was sending anyway — zero
//     additional cloud operations on the healthy write path.
//
// Verification (VerifyAudit, driving Client.VerifyLineage/VerifyAll)
// re-derives every subject hash and the root from the stored records and
// reports typed divergences: chain breaks and gaps name the subject,
// root mismatches name the shard.
package integrity

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"passcloud/internal/prov"
)

// Reserved names the integrity subsystem adds to stored forms.
const (
	// AttrChain is the chain record's attribute name. Chain records are
	// ordinary provenance records — they ride every encoding, WAL message
	// and query path unchanged — whose value is a chain token.
	AttrChain = "x-chain"
	// AttrRoot is the checkpoint rider: a SimpleDB attribute or S3
	// metadata key (never a provenance record) holding a checkpoint
	// token. Decoders skip it like the other protocol attributes.
	AttrRoot = "x-root"
)

// Chain token forms.
const (
	// TokenGenesis marks version 0 of an object: no predecessor.
	TokenGenesis = "genesis"
	// TokenDetached marks a version whose writer did not know its
	// predecessor's record set (the object was attached from another
	// client's history). The link is unverifiable, not divergent.
	TokenDetached = "detached"
	// tokenLinkPrefix prefixes an embedded predecessor subject hash.
	tokenLinkPrefix = "h:"
)

// hashHexLen truncates subject hashes and roots to 128 bits (32 hex
// characters): strong enough for tamper evidence, small enough that chain
// records and checkpoint riders never push a write over the S3 metadata
// or SQS message budgets the architectures pack against.
const hashHexLen = 32

// LinkToken renders the chain token embedding a predecessor's subject hash.
func LinkToken(prevHash string) string { return tokenLinkPrefix + prevHash }

// ParseLink extracts the embedded predecessor hash from a link token.
func ParseLink(token string) (string, bool) {
	if strings.HasPrefix(token, tokenLinkPrefix) {
		return token[len(tokenLinkPrefix):], true
	}
	return "", false
}

// ChainRecord builds the chain record flushed with a version's record set.
func ChainRecord(subject prov.Ref, token string) prov.Record {
	return prov.Record{Subject: subject, Attr: AttrChain, Value: prov.StringValue(token)}
}

// SubjectHash canonically hashes one version's full record set (the chain
// record included): sorted, deduplicated attribute/value lines under the
// subject reference. Deduplication mirrors SimpleDB's set semantics, so a
// record set replayed through any architecture hashes identically, and
// sorting makes the hash independent of flush or scan order. The hash
// doubles as the subject's Merkle leaf.
func SubjectHash(subject prov.Ref, records []prov.Record) string {
	h := lineHashers.Get().(*lineHasher)
	sum, _ := h.sum(subject, records)
	lineHashers.Put(h)
	x := sum.hex()
	return string(x[:])
}

// digest is a subject hash before its hex encoding: SHA-256 truncated to
// the hashHexLen characters SubjectHash returns.
type digest [hashHexLen / 2]byte

func (d *digest) hex() (x [hashHexLen]byte) {
	hex.Encode(x[:], d[:])
	return x
}

// leaf is the subject's Merkle key: hashLeaf over SubjectHash's string.
func (d *digest) leaf() leafKey {
	x := d.hex()
	return hashLeaf(x[:])
}

// lineHasher renders one record set's lines into a reused buffer and
// sorts spans of it, so hashing a subject allocates nothing once the
// buffers have grown.
type lineHasher struct {
	buf   []byte
	lines []span
}

// span is one rendered line, buf[start:end].
type span struct{ start, end int }

var lineHashers = sync.Pool{New: func() any { return new(lineHasher) }}

// sum hashes SubjectHash's canonical form: the subject line, then every
// distinct "attr\x1fvalue" line in byte order, each newline-terminated.
// mayDup reports that DedupRecords could drop a record from the set: two
// records rendered the same line, or several riders were skipped. Only
// then can the deduplicated set be smaller than records.
func (h *lineHasher) sum(subject prov.Ref, records []prov.Record) (d digest, mayDup bool) {
	buf, lines := h.buf[:0], h.lines[:0]
	riders := 0
	for i := range records {
		r := &records[i]
		if r.Attr == AttrRoot { // defensive: riders are not records
			riders++
			continue
		}
		start := len(buf)
		buf = append(append(buf, r.Attr...), '\x1f')
		if r.Value.Kind == prov.KindRef {
			buf = appendRef(buf, r.Value.Ref)
		} else {
			buf = append(buf, r.Value.Str...)
		}
		lines = append(lines, span{start, len(buf)})
	}
	slices.SortFunc(lines, func(a, b span) int {
		return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end])
	})
	msg := len(buf)
	buf = append(appendRef(buf, subject), '\n')
	var prev []byte
	for i, l := range lines {
		line := buf[l.start:l.end]
		if i > 0 && bytes.Equal(line, prev) {
			mayDup = true
			continue
		}
		prev = line
		buf = append(append(buf, line...), '\n')
	}
	full := sha256.Sum256(buf[msg:])
	copy(d[:], full[:])
	h.buf, h.lines = buf, lines
	return d, mayDup || riders > 1
}

// appendRef appends ref's canonical object:version form (prov.Ref.String).
func appendRef(buf []byte, ref prov.Ref) []byte {
	buf = append(append(buf, ref.Object...), ':')
	return strconv.AppendInt(buf, int64(ref.Version), 10)
}

// DedupRecords drops exact duplicate records, preserving first-appearance
// order. A store that replicates a subject's records across carriers (the
// S3-only design re-sends rider copies after a whole-batch replay) unions
// them to duplicates in an audit; identical copies are not divergences. A
// copy altered in any byte is NOT merged away and the chain and root
// checks catch it. The audit calls it only for a set whose hashing could
// have met two equal records (a line rendered twice, several riders); no
// other set can lose one.
func DedupRecords(records []prov.Record) []prov.Record {
	seen := make(map[prov.Record]bool, len(records))
	out := records[:0:0]
	for _, r := range records {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// ComposeRoots folds per-shard roots into the single namespace root the
// router exposes: shard order is part of the commitment (shard i's root in
// position i), so swapping two shards' stores is itself a divergence.
func ComposeRoots(roots []string) string {
	h := sha256.New()
	for i, r := range roots {
		fmt.Fprintf(h, "%d:%s\n", i, r)
	}
	return hex.EncodeToString(h.Sum(nil))[:hashHexLen]
}

// Checkpoint is one committed ledger state: after the writer's Seq-th
// commit, the store's subject leaves rolled to Root over Count subjects.
type Checkpoint struct {
	// Writer identifies the client whose ledger minted the checkpoint.
	Writer string
	// Seq orders a writer's checkpoints; the highest is the final state.
	Seq int
	// Count is the number of distinct subject leaves under Root.
	Count int
	// Root is the Merkle root at mint time.
	Root string
}

// Writers are caller-chosen labels, so the token escapes its own
// separator in them; labels free of '|' and '%' are stored as they are.
var (
	writerEscaper   = strings.NewReplacer("%", "%25", "|", "%7C")
	writerUnescaper = strings.NewReplacer("%25", "%", "%7C", "|")
)

// Token renders the stored form: "v2|writer|seq|count|root".
func (c Checkpoint) Token() string {
	return fmt.Sprintf("v2|%s|%d|%d|%s", writerEscaper.Replace(c.Writer), c.Seq, c.Count, c.Root)
}

// ParseCheckpoint reverses Token.
func ParseCheckpoint(token string) (Checkpoint, error) {
	parts := strings.Split(token, "|")
	if len(parts) != 5 || parts[0] != "v2" {
		return Checkpoint{}, fmt.Errorf("integrity: malformed checkpoint token %q", token)
	}
	seq, err := strconv.Atoi(parts[2])
	if err != nil || seq < 0 {
		return Checkpoint{}, fmt.Errorf("integrity: malformed checkpoint seq in %q", token)
	}
	count, err := strconv.Atoi(parts[3])
	if err != nil || count < 0 {
		return Checkpoint{}, fmt.Errorf("integrity: malformed checkpoint count in %q", token)
	}
	return Checkpoint{Writer: writerUnescaper.Replace(parts[1]), Seq: seq, Count: count, Root: parts[4]}, nil
}

// Ledger tracks one writer's committed subject leaves, keyed by storage
// slot — the unit the store overwrites atomically (a SimpleDB item, an S3
// object's metadata). Re-committing a slot replaces its leaves, which
// makes the ledger idempotent under WAL replay, ack-loss retry and
// partial-batch re-flush: the same slot re-committed with the same
// records converges to the same state, and an S3 metadata overwrite that
// supersedes an older version's records supersedes its leaves too.
//
// The leaves live in a Merkle set maintained in place, so a commit costs
// O(log n) hashes per changed leaf however many the ledger holds. A leaf
// held by several slots is one member of the set.
//
// Ledger is safe for concurrent use.
type Ledger struct {
	mu     sync.Mutex
	writer string
	seq    int
	slots  map[string][]leafKey
	set    merkleSet
}

// NewLedger builds an empty ledger for the named writer.
func NewLedger(writer string) *Ledger {
	if writer == "" {
		writer = "w"
	}
	return &Ledger{writer: writer, slots: make(map[string][]leafKey)}
}

// Commit replaces the given slots' leaves and mints the next checkpoint
// over the whole ledger. One Commit covers one durable store write (one
// batch, one PUT), so the checkpoint riding that write commits to
// everything written up to and including it.
func (l *Ledger) Commit(slots map[string][]string) Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	for slot, leaves := range slots {
		// Take the new references before dropping the old, so a leaf the
		// slot keeps never leaves the set.
		keys := make([]leafKey, len(leaves))
		for i, leaf := range leaves {
			keys[i] = hashLeaf(leaf)
			l.set.add(&keys[i])
		}
		l.dropLocked(slot)
		if len(keys) > 0 {
			l.slots[slot] = keys
		}
	}
	l.seq++
	return l.checkpointLocked()
}

// Remove drops a slot (a deleted item or object) without minting a
// checkpoint; the next Commit's checkpoint covers the removal.
func (l *Ledger) Remove(slot string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropLocked(slot)
}

func (l *Ledger) dropLocked(slot string) {
	keys := l.slots[slot]
	for i := range keys {
		l.set.release(&keys[i])
	}
	delete(l.slots, slot)
}

// Slots lists the ledger's live slot keys. Removal paths use it to find
// slots whose stored carrier has vanished (a tampered-away object no
// listing can surface) so the commitment can still follow the departure.
func (l *Ledger) Slots() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.slots))
	for slot := range l.slots {
		out = append(out, slot)
	}
	sort.Strings(out)
	return out
}

// Phantoms lists the slots outside live that departing accepts: entries
// of a departing arc whose stored carrier is already gone. Their leaves
// must still leave the commitment or the next audit flags a root mismatch
// against records that no longer exist. A nil ledger has none.
func (l *Ledger) Phantoms(live map[string]bool, departing func(slot string) bool) []string {
	if l == nil {
		return nil
	}
	var out []string
	for _, slot := range l.Slots() {
		if !live[slot] && departing(slot) {
			out = append(out, slot)
		}
	}
	return out
}

// Checkpoint reports the current state without advancing Seq.
func (l *Ledger) Checkpoint() Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpointLocked()
}

func (l *Ledger) checkpointLocked() Checkpoint {
	return Checkpoint{Writer: l.writer, Seq: l.seq, Count: l.set.distinct, Root: l.set.root()}
}
