package integrity

import (
	"fmt"
	"math/rand"
	"testing"
)

// ledgerModel drives a Ledger beside the plain slot→leaves map it stands
// for, and holds the incremental root to the bulk constructor's after
// every step.
type ledgerModel struct {
	t      testing.TB
	ledger *Ledger
	slots  map[string][]string
}

func newLedgerModel(t testing.TB) *ledgerModel {
	return &ledgerModel{t: t, ledger: NewLedger("w"), slots: make(map[string][]string)}
}

func (m *ledgerModel) commit(slots map[string][]string) {
	m.t.Helper()
	for slot, leaves := range slots {
		delete(m.slots, slot)
		if len(leaves) > 0 {
			m.slots[slot] = leaves
		}
	}
	m.check(m.ledger.Commit(slots))
}

func (m *ledgerModel) remove(slot string) {
	m.t.Helper()
	delete(m.slots, slot)
	m.ledger.Remove(slot)
	m.check(m.ledger.Checkpoint())
}

func (m *ledgerModel) check(cp Checkpoint) {
	m.t.Helper()
	var live []string
	distinct := make(map[string]bool)
	for _, leaves := range m.slots {
		for _, leaf := range leaves {
			live = append(live, leaf)
			distinct[leaf] = true
		}
	}
	if want := MerkleRoot(live); cp.Root != want {
		m.t.Fatalf("incremental root %s != bulk root %s over %d live leaves", cp.Root, want, len(live))
	}
	if cp.Count != len(distinct) {
		m.t.Fatalf("count = %d, want %d distinct leaves", cp.Count, len(distinct))
	}
	if got := len(m.ledger.Slots()); got != len(m.slots) {
		m.t.Fatalf("ledger holds %d slots, model %d", got, len(m.slots))
	}
}

// step decodes one operation from three bytes. Slots and leaves come from
// small pools, so slots get replaced and leaves get shared across slots.
func (m *ledgerModel) step(op, a, b byte) {
	m.t.Helper()
	slot := func(x byte) string { return fmt.Sprintf("slot%d", x%24) }
	leaf := func(x byte) string { return fmt.Sprintf("leaf%d", x%40) }
	switch op % 5 {
	case 0:
		m.commit(map[string][]string{slot(a): {leaf(b)}})
	case 1:
		m.commit(map[string][]string{slot(a): {leaf(b), leaf(b + 1), leaf(b)}})
	case 2:
		m.commit(map[string][]string{slot(a): {leaf(b)}, slot(a + 1): {leaf(b), leaf(a)}})
	case 3:
		m.remove(slot(a))
	case 4:
		m.commit(map[string][]string{slot(a): nil, slot(b): {leaf(a)}})
	}
}

func TestLedgerMatchesBulkRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newLedgerModel(t)
		for i := 0; i < 1500; i++ {
			m.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
	// A wider pool grows the trie past a handful of levels.
	rng := rand.New(rand.NewSource(9))
	m := newLedgerModel(t)
	for i := 0; i < 2000; i++ {
		slot := fmt.Sprintf("s%d", rng.Intn(400))
		if rng.Intn(4) == 0 {
			m.remove(slot)
			continue
		}
		leaves := make([]string, 1+rng.Intn(3))
		for j := range leaves {
			leaves[j] = fmt.Sprintf("%032x", rng.Intn(600))
		}
		m.commit(map[string][]string{slot: leaves})
	}
}

func FuzzLedgerMatchesBulk(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 3, 1, 0})
	f.Add([]byte{2, 7, 7, 4, 7, 8, 3, 8, 0, 1, 8, 39})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newLedgerModel(t)
		for ; len(data) >= 3; data = data[3:] {
			m.step(data[0], data[1], data[2])
		}
	})
}

func FuzzParseCheckpoint(f *testing.F) {
	f.Add("v2|w0-s3|17|42|abc123", "lab|alice")
	f.Add("v2|a%7Cb|1|1|empty", "100%|%7C%25")
	f.Add("v1|w|1|2|r", "")
	f.Fuzz(func(t *testing.T, token, writer string) {
		if cp, err := ParseCheckpoint(token); err == nil && (cp.Seq < 0 || cp.Count < 0) {
			t.Fatalf("ParseCheckpoint(%q) accepted a negative field: %+v", token, cp)
		}
		cp := Checkpoint{Writer: writer, Seq: 3, Count: 2, Root: "00112233445566778899aabbccddeeff"}
		got, err := ParseCheckpoint(cp.Token())
		if err != nil || got != cp {
			t.Fatalf("round trip of writer %q through %q: got %+v, %v", writer, cp.Token(), got, err)
		}
	})
}

// filledLedger holds n single-leaf slots.
func filledLedger(n int) *Ledger {
	slots := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		slots[fmt.Sprintf("slot%06d", i)] = []string{fmt.Sprintf("%032x", i)}
	}
	l := NewLedger("w")
	l.Commit(slots)
	return l
}

// TestLedgerCommitCostFlat guards against a commit that touches the whole
// ledger again: allocations per one-slot commit must not grow with it.
func TestLedgerCommitCostFlat(t *testing.T) {
	allocs := func(n int) float64 {
		l := filledLedger(n)
		i := n
		return testing.AllocsPerRun(200, func() {
			i++
			l.Commit(map[string][]string{"hot": {fmt.Sprintf("%032x", i)}})
		})
	}
	small, large := allocs(1<<10), allocs(64<<10)
	if d := large - small; d > 2 || d < -2 {
		t.Fatalf("one-slot commit allocates %.0f times on 1k leaves but %.0f on 64k", small, large)
	}
}

func BenchmarkLedgerCommit(b *testing.B) {
	for _, n := range []int{1 << 10, 16 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("n=%dk", n>>10), func(b *testing.B) {
			l := filledLedger(n)
			b.ReportAllocs()
			i := n
			for b.Loop() {
				i++
				l.Commit(map[string][]string{fmt.Sprintf("new%06d", i): {fmt.Sprintf("%032x", i)}})
			}
		})
	}
}
