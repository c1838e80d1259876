// Package trace generates the benchmark's seeded operation traces: the
// syscall-level activity of three application shapes (a kernel compile, a
// BLAST pipeline run, the Provenance Challenge fMRI workflow) as plain data.
//
// A trace is a list of Ops. An Op names processes by small integer ids, so
// one trace applies to any Target — the public passcloud.Client in the
// end-to-end driver, a bare pass.System in the traced one — and both runs
// see byte-identical input. The program under test receives only the ops:
// every random choice (environment sizes, payload bytes, header and batch
// selection) is drawn here, from the seed.
package trace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
)

// Kind is the syscall an Op replays.
type Kind uint8

// The op kinds, one per PASS-observed call.
const (
	Exec Kind = iota
	Read
	Write
	WriteDerived
	Append
	PipeTo
	Close
	Exit
	Ingest
)

var kindNames = [...]string{"exec", "read", "write", "write-derived", "append", "pipe-to", "close", "exit", "ingest"}

// String names the kind.
func (k Kind) String() string { return kindNames[k] }

// Op is one replayable call.
type Op struct {
	Kind Kind
	// Proc is the acting process id (the new process for Exec; unused for
	// Ingest).
	Proc int
	// Peer is the parent process for Exec (-1: session root) and the
	// receiving process for PipeTo.
	Peer int
	// Path is the file operated on.
	Path string
	// Name, Argv and Env describe an Exec.
	Name string
	Argv []string
	Env  string
	// Data is the payload of Write, Append and Ingest.
	Data []byte
}

// Target is anything a trace can drive. Process ids are assigned by the
// trace (dense, from 0); the target keeps its own id -> handle table.
type Target interface {
	Exec(id, parent int, name string, argv []string, env string)
	Read(id int, path string) error
	Write(id int, path string, data []byte) error
	WriteDerived(id int, path string) error
	Append(id int, path string, data []byte) error
	PipeTo(from, to int) error
	Close(ctx context.Context, id int, path string) error
	Exit(id int)
	Ingest(ctx context.Context, path string, data []byte) error
}

// Apply replays the op on t.
func (op *Op) Apply(ctx context.Context, t Target) error {
	switch op.Kind {
	case Exec:
		t.Exec(op.Proc, op.Peer, op.Name, op.Argv, op.Env)
		return nil
	case Read:
		return t.Read(op.Proc, op.Path)
	case Write:
		return t.Write(op.Proc, op.Path, op.Data)
	case WriteDerived:
		return t.WriteDerived(op.Proc, op.Path)
	case Append:
		return t.Append(op.Proc, op.Path, op.Data)
	case PipeTo:
		return t.PipeTo(op.Proc, op.Peer)
	case Close:
		return t.Close(ctx, op.Proc, op.Path)
	case Exit:
		t.Exit(op.Proc)
		return nil
	case Ingest:
		return t.Ingest(ctx, op.Path, op.Data)
	}
	return fmt.Errorf("trace: unknown op kind %d", op.Kind)
}

// ChallengeRun names the objects of one Provenance Challenge workflow run
// that queries, replays and read-backs target.
type ChallengeRun struct {
	// Reference is the shared reference image every align_warp reads.
	Reference string
	// Atlas is the softmean output everything downstream derives from.
	Atlas string
	// Graphics are the three final converted images.
	Graphics []string
}

// Trace is one client's generated activity.
type Trace struct {
	// Setup ingests the files that pre-exist the measured run (sources,
	// headers, databases, anatomy images).
	Setup []Op
	// Ops is the measured activity, in program order.
	Ops []Op
	// Runs lists the Challenge workflow runs in Ops, in order.
	Runs []ChallengeRun
	// Procs is the number of process ids the trace uses.
	Procs int
	// UserBytes is the payload volume of Setup and Ops that the trace
	// itself carries (derived outputs are sized by the tool registry and
	// are not included).
	UserBytes int64
}

// Closes counts the Close ops in Ops.
func (t *Trace) Closes() int {
	n := 0
	for i := range t.Ops {
		if t.Ops[i].Kind == Close {
			n++
		}
	}
	return n
}

// Digest fingerprints the whole trace: every field of every op, in order.
// Equal seeds give equal digests; the unit tests hold the generator to it.
func (t *Trace) Digest() string {
	h := sha256.New()
	var n [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, ops := range [][]Op{t.Setup, t.Ops} {
		str(fmt.Sprint(len(ops)))
		for i := range ops {
			op := &ops[i]
			str(fmt.Sprintf("%d/%d/%d/%d", op.Kind, op.Proc, op.Peer, len(op.Argv)))
			str(op.Path)
			str(op.Name)
			for _, a := range op.Argv {
				str(a)
			}
			str(op.Env)
			str(string(op.Data))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Builder accumulates shapes into one trace. All paths are rooted at the
// builder's prefix, so several clients of one region write disjoint
// objects.
type Builder struct {
	rng    *rand.Rand
	prefix string
	t      Trace
}

// NewBuilder starts a trace. stream separates the random streams of
// several builders that share one seed (one per client).
func NewBuilder(seed, stream uint64, prefix string) *Builder {
	return &Builder{rng: rand.New(rand.NewPCG(seed, stream)), prefix: prefix}
}

// Trace returns the accumulated trace.
func (b *Builder) Trace() *Trace { return &b.t }

func (b *Builder) path(format string, args ...any) string {
	return b.prefix + fmt.Sprintf(format, args...)
}

func (b *Builder) emit(op Op) { b.t.Ops = append(b.t.Ops, op) }

func (b *Builder) exec(parent int, name string, argv []string) int {
	id := b.t.Procs
	b.t.Procs++
	b.emit(Op{Kind: Exec, Proc: id, Peer: parent, Name: name, Argv: argv, Env: b.env()})
	return id
}

func (b *Builder) read(proc int, path string) { b.emit(Op{Kind: Read, Proc: proc, Path: path}) }
func (b *Builder) derive(proc int, path string) {
	b.emit(Op{Kind: WriteDerived, Proc: proc, Path: path})
}
func (b *Builder) close(proc int, path string) { b.emit(Op{Kind: Close, Proc: proc, Path: path}) }
func (b *Builder) exit(proc int)               { b.emit(Op{Kind: Exit, Proc: proc}) }

// ingest schedules a pre-existing file for the setup phase.
func (b *Builder) ingest(path string, size int) {
	data := b.payload(size)
	b.t.Setup = append(b.t.Setup, Op{Kind: Ingest, Path: path, Data: data})
	b.t.UserBytes += int64(len(data))
}

// payload draws size pseudo-random bytes from the trace's stream.
func (b *Builder) payload(size int) []byte {
	if size < 1 {
		size = 1
	}
	out := make([]byte, size)
	i := 0
	for ; i+8 <= len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], b.rng.Uint64())
	}
	if i < len(out) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], b.rng.Uint64())
		copy(out[i:], tail[:])
	}
	return out
}

// sizeAround samples a log-normal size with the given median, clamped to
// [1, 16*median].
func (b *Builder) sizeAround(median int) int {
	v := int(float64(median) * math.Exp(0.6*b.rng.NormFloat64()))
	return min(max(v, 1), 16*median)
}

// bigEnvShare is the share of processes whose captured environment exceeds
// 1 KB — the paper's source of provenance records over the S3 metadata and
// SimpleDB value limits.
const bigEnvShare = 0.22

// env draws one process environment: mostly a few hundred bytes, with a
// tail past every 2009 size limit.
func (b *Builder) env() string {
	size := 250 + b.rng.IntN(850)
	if b.rng.Float64() < bigEnvShare {
		size = 1100 + b.rng.IntN(5200)
	}
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = 'A' + byte(b.rng.IntN(26))
	}
	return string(buf)
}
