// Package prov defines the provenance data model shared by every
// architecture in this repository: records, object references, the ancestry
// graph, and the wire encodings for each storage backend.
//
// The model follows PASS (paper §2.4): persistent objects (files) and
// transient objects (processes, pipes) are versioned, and provenance records
// relate a specific version of one object to versions of others ("when a
// process issues a read system call, PASS creates a provenance record
// stating that the process depends upon the file being read"). Versioning
// preserves causality and keeps the dependency graph acyclic.
package prov

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ObjectID names a PASS object: a file path like "/out/result.dat" or a
// process identity like "proc/1423/blast".
type ObjectID string

// Version numbers an object's causality-preserving versions, starting at 0.
type Version int

// Ref points at one version of one object. Its string form, "object:version",
// is the form stored in SimpleDB attribute values (the paper's example:
// provenance record (input, bar:2)).
type Ref struct {
	Object  ObjectID
	Version Version
}

// String renders the canonical object:version form.
func (r Ref) String() string {
	return string(r.Object) + ":" + strconv.Itoa(int(r.Version))
}

// HasPrefix reports whether r's canonical string form starts with prefix,
// without rendering it: past the object name, the prefix must go on with
// the colon and then the version's leading digits.
func (r Ref) HasPrefix(prefix string) bool {
	object := string(r.Object)
	if len(prefix) <= len(object) {
		return strings.HasPrefix(object, prefix)
	}
	if !strings.HasPrefix(prefix, object) || prefix[len(object)] != ':' {
		return false
	}
	var buf [20]byte
	digits, rest := strconv.AppendInt(buf[:0], int64(r.Version), 10), prefix[len(object)+1:]
	return len(rest) <= len(digits) && string(digits[:len(rest)]) == rest
}

// ParseRef parses the canonical object:version form. The version is the
// digits after the last colon, so object names may themselves contain
// colons. Only the spelling String renders is accepted: "f:00" or "f:+0"
// would otherwise alias the subject stored as "f:0".
func ParseRef(s string) (Ref, error) {
	i := strings.LastIndexByte(s, ':')
	if i <= 0 {
		return Ref{}, fmt.Errorf("%w: ref %q", ErrMalformed, s)
	}
	v, ok := parseVersion(s[i+1:])
	if !ok {
		return Ref{}, fmt.Errorf("%w: ref version in %q", ErrMalformed, s)
	}
	return Ref{Object: ObjectID(s[:i]), Version: v}, nil
}

// parseVersion accepts only the canonical decimal spelling of a
// non-negative number — the one strconv.Itoa renders — so every stored
// name, ref and metadata index has exactly one parse.
func parseVersion(s string) (Version, bool) {
	v, err := strconv.Atoi(s)
	return Version(v), err == nil && v >= 0 && strconv.Itoa(v) == s
}

// Object types recorded under AttrType.
const (
	TypeFile    = "file"
	TypeProcess = "process"
	TypePipe    = "pipe"
)

// Well-known attribute names, following PASS conventions. AttrInput is the
// ancestry edge; everything else is descriptive.
const (
	// AttrInput records a dependency on another object version. Its value
	// is a Ref. This is the edge the ancestry graph is built from.
	AttrInput = "input"
	// AttrName is the object's human name (file path, program name).
	AttrName = "name"
	// AttrType is one of TypeFile, TypeProcess, TypePipe.
	AttrType = "type"
	// AttrArgv is a process's command line.
	AttrArgv = "argv"
	// AttrEnv is a process's environment (recorded selectively).
	AttrEnv = "env"
	// AttrPID is a process's numeric ID at capture time.
	AttrPID = "pid"
	// AttrKernel is the kernel version that produced the record.
	AttrKernel = "kernel"
)

// ValueKind discriminates record values.
type ValueKind uint8

// Value kinds.
const (
	KindString ValueKind = iota
	KindRef
)

// Value is a provenance record's value: either an opaque string or a
// reference to another object version.
type Value struct {
	Kind ValueKind
	Str  string
	Ref  Ref
}

// StringValue wraps a string.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }

// RefValue wraps a reference.
func RefValue(r Ref) Value { return Value{Kind: KindRef, Ref: r} }

// String renders the value for storage: refs in object:version form.
func (v Value) String() string {
	if v.Kind == KindRef {
		return v.Ref.String()
	}
	return v.Str
}

// Size is the value's encoded length in bytes.
func (v Value) Size() int { return len(v.String()) }

// Record is one provenance assertion: Subject's Attr has Value. A subject
// typically carries many records (its type, name, and one input record per
// dependency).
type Record struct {
	Subject Ref
	Attr    string
	Value   Value
}

// String renders a debugging form.
func (r Record) String() string {
	return fmt.Sprintf("%s %s=%s", r.Subject, r.Attr, r.Value)
}

// Size is the record's approximate encoded size: attribute name plus value.
// The paper measures provenance sizes in exactly these terms (attribute
// name/value bytes).
func (r Record) Size() int { return len(r.Attr) + r.Value.Size() }

// ErrMalformed reports an undecodable stored record.
var ErrMalformed = errors.New("prov: malformed encoded record")

// NewInput builds the common dependency record: subject depends on input.
func NewInput(subject, input Ref) Record {
	return Record{Subject: subject, Attr: AttrInput, Value: RefValue(input)}
}

// NewString builds a descriptive string record.
func NewString(subject Ref, attr, value string) Record {
	return Record{Subject: subject, Attr: attr, Value: StringValue(value)}
}

// IsRefAttr reports whether attr carries Ref values. Stored forms do not tag
// value kinds; decoding relies on the attribute schema, which for PASS means
// exactly the input attribute.
func IsRefAttr(attr string) bool { return attr == AttrInput }

// RecordsSize sums Record.Size over records: the "provenance size" measure
// used throughout the paper's analysis.
func RecordsSize(records []Record) int64 {
	var n int64
	for _, r := range records {
		n += int64(r.Size())
	}
	return n
}

// BySubject groups records by subject reference, preserving order within a
// subject. Architectures flush one subject (one object version) at a time.
func BySubject(records []Record) map[Ref][]Record {
	out := make(map[Ref][]Record)
	for _, r := range records {
		out[r.Subject] = append(out[r.Subject], r)
	}
	return out
}
