package prov

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file defines the three wire encodings of provenance records:
//
//   - the S3 metadata form (architecture 1): records flattened into the
//     object's user-metadata key/value map, subject to the 2 KB limit;
//   - the SimpleDB form (architectures 2 and 3): one item per object
//     version, one attribute-value pair per record (paper §4.2 example:
//     ItemName=foo_2; input=bar:2; type=file);
//   - the JSON form: used for WAL messages (architecture 3), which must be
//     valid Unicode within SQS's 8 KB message limit.
//
// Every encoding round-trips: Decode(Encode(records)) == records up to
// record order within a subject. The S3 and SimpleDB forms carry string
// values as the caller hands them over — the stores hand over the stored
// form (core.EncodeValue) and resolve what decoding returns
// (core.ResolveRecords); see ARCHITECTURE.md "Stored layout".

// --- S3 metadata form -------------------------------------------------------

// The S3 metadata form's spelling. An object's own records sit under
// S3OwnPrefix keys as "<attr>\x1f<value>"; records about other subjects —
// the transient ancestors riding the object's PUT — sit under
// S3ForeignPrefix keys as "<subject>\x1f<attr>\x1f<value>". Both prefixes
// are followed by the record's index in canonical decimal.
const (
	S3OwnPrefix     = "p-"
	S3ForeignPrefix = "q-"
	// S3FieldSep separates the fields of one metadata value. The unit
	// separator cannot appear in attribute names.
	S3FieldSep = "\x1f"
)

// S3MetaEntry renders record i of a carrier as one metadata key and value.
// The value is written as it stands: string values must already be in
// stored form (escaped literal or overflow pointer). An own record's
// subject is implied by the object the metadata is stored on, matching the
// paper's design where provenance rides on the object's own PUT.
func S3MetaEntry(i int, r Record, foreign bool) (key, value string) {
	if foreign {
		return S3ForeignPrefix + strconv.Itoa(i), r.Subject.String() + S3FieldSep + r.Attr + S3FieldSep + r.Value.String()
	}
	return S3OwnPrefix + strconv.Itoa(i), r.Attr + S3FieldSep + r.Value.String()
}

// EncodeS3Metadata renders records about a single subject as S3 user
// metadata, one S3MetaEntry each.
func EncodeS3Metadata(records []Record) map[string]string {
	out := make(map[string]string, len(records))
	for i, r := range records {
		k, v := S3MetaEntry(i, r, false)
		out[k] = v
	}
	return out
}

// DecodeS3Metadata extracts every record a carrier's metadata holds: own
// entries (about subject) by index, then foreign entries by index. Indexes
// may be sparse — records that spilled to a bundle leave gaps. Keys outside
// the two prefixes are ignored, so protocol metadata (version, checkpoint,
// bundle pointer) shares the map. String values come back in stored form.
func DecodeS3Metadata(subject Ref, meta map[string]string) ([]Record, error) {
	type slot struct {
		foreign bool
		n       int
		key     string
	}
	slots := make([]slot, 0, len(meta))
	for k := range meta {
		suffix, foreign := strings.CutPrefix(k, S3ForeignPrefix)
		if !foreign {
			var own bool
			if suffix, own = strings.CutPrefix(k, S3OwnPrefix); !own {
				continue
			}
		}
		n, ok := parseVersion(suffix)
		if !ok {
			return nil, fmt.Errorf("%w: metadata key %q", ErrMalformed, k)
		}
		slots = append(slots, slot{foreign, int(n), k})
	}
	slices.SortFunc(slots, func(a, b slot) int {
		if a.foreign != b.foreign {
			if a.foreign {
				return 1
			}
			return -1
		}
		return a.n - b.n
	})
	out := make([]Record, 0, len(slots))
	for _, sl := range slots {
		rest, about := meta[sl.key], subject
		if sl.foreign {
			head, tail, ok := strings.Cut(rest, S3FieldSep)
			ref, err := ParseRef(head)
			if !ok || err != nil {
				return nil, fmt.Errorf("%w: foreign entry %q", ErrMalformed, sl.key)
			}
			rest, about = tail, ref
		}
		attr, raw, ok := strings.Cut(rest, S3FieldSep)
		if !ok || attr == "" {
			return nil, fmt.Errorf("%w: entry %q", ErrMalformed, sl.key)
		}
		rec, err := decodeRaw(about, attr, raw)
		if err != nil {
			return nil, fmt.Errorf("entry %q: %w", sl.key, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// decodeRaw rebuilds one record from its stored attribute and value. Stored
// forms do not tag value kinds: the attribute schema (IsRefAttr) does.
func decodeRaw(subject Ref, attr, raw string) (Record, error) {
	if IsRefAttr(attr) {
		ref, err := ParseRef(raw)
		if err != nil {
			return Record{}, err
		}
		return Record{Subject: subject, Attr: attr, Value: RefValue(ref)}, nil
	}
	return Record{Subject: subject, Attr: attr, Value: StringValue(raw)}, nil
}

// S3MetadataSize is the byte size S3 charges for the encoded metadata: the
// sum of key and value lengths. Architecture 1 compares this against the
// 2 KB limit to decide what spills.
func S3MetadataSize(meta map[string]string) int {
	n := 0
	for k, v := range meta {
		n += len(k) + len(v)
	}
	return n
}

// --- SimpleDB form ----------------------------------------------------------

// itemNameSep joins object name and version in SimpleDB item names. The
// paper's example uses foo_2.
const itemNameSep = "_"

// EncodeItemName renders the SimpleDB item name for a subject: the
// "concatenation of the object name and the version" (§4.2).
func EncodeItemName(subject Ref) string {
	return string(subject.Object) + itemNameSep + strconv.Itoa(int(subject.Version))
}

// ParseItemName reverses EncodeItemName. The version is the digits after
// the final underscore, so object names may contain underscores. Only the
// spelling EncodeItemName renders is accepted: "f_00" or "f_+0" would
// otherwise alias the subject stored as "f_0".
func ParseItemName(item string) (Ref, error) {
	i := strings.LastIndex(item, itemNameSep)
	if i <= 0 {
		return Ref{}, fmt.Errorf("%w: item name %q", ErrMalformed, item)
	}
	v, ok := parseVersion(item[i+1:])
	if !ok {
		return Ref{}, fmt.Errorf("%w: item name version %q", ErrMalformed, item)
	}
	return Ref{Object: ObjectID(item[:i]), Version: v}, nil
}

// SDBAttr is an attribute-value pair destined for SimpleDB. It mirrors
// sdb.Attr without importing the service package: prov stays a pure model.
type SDBAttr struct {
	Name  string
	Value string
}

// SDBAttrOf renders one record as its SimpleDB pair. Repeated attributes
// (several inputs) become multiple pairs with the same name, which
// SimpleDB's data model supports directly. String values must already be
// in stored form.
func SDBAttrOf(r Record) SDBAttr { return SDBAttr{Name: r.Attr, Value: r.Value.String()} }

// EncodeSDBAttrs renders a subject's records as SimpleDB attributes, one
// SDBAttrOf pair per record.
func EncodeSDBAttrs(records []Record) []SDBAttr {
	out := make([]SDBAttr, 0, len(records))
	for _, r := range records {
		out = append(out, SDBAttrOf(r))
	}
	return out
}

// DecodeSDBAttrs reverses EncodeSDBAttrs for a subject, skipping attribute
// names in ignore (protocol bookkeeping such as md5/nonce records). It
// takes the service's own pair type as well as SDBAttr. String values come
// back in stored form.
func DecodeSDBAttrs[A ~struct{ Name, Value string }](subject Ref, attrs []A, ignore map[string]bool) ([]Record, error) {
	out := make([]Record, 0, len(attrs))
	for _, at := range attrs {
		a := SDBAttr(at)
		if ignore[a.Name] {
			continue
		}
		rec, err := decodeRaw(subject, a.Name, a.Value)
		if err != nil {
			return nil, fmt.Errorf("attr %q: %w", a.Name, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// --- JSON form (WAL messages) ----------------------------------------------

// jsonRecord is the stable wire schema for one record.
type jsonRecord struct {
	Subject string `json:"s"`
	Attr    string `json:"a"`
	Ref     string `json:"r,omitempty"`
	Str     string `json:"v,omitempty"`
	IsStr   bool   `json:"t,omitempty"` // distinguishes empty string values
}

// MarshalJSONRecords encodes records as a JSON array — always valid UTF-8,
// as SQS requires.
func MarshalJSONRecords(records []Record) ([]byte, error) {
	out := make([]jsonRecord, len(records))
	for i, r := range records {
		out[i] = toJSONRecord(r)
	}
	return json.Marshal(out)
}

func toJSONRecord(r Record) jsonRecord {
	j := jsonRecord{Subject: r.Subject.String(), Attr: r.Attr}
	if r.Value.Kind == KindRef {
		j.Ref = r.Value.Ref.String()
	} else {
		j.Str = r.Value.Str
		j.IsStr = true
	}
	return j
}

// UnmarshalJSONRecords reverses MarshalJSONRecords.
func UnmarshalJSONRecords(data []byte) ([]Record, error) {
	var raw []jsonRecord
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	out := make([]Record, len(raw))
	for i, j := range raw {
		rec, err := fromJSONRecord(j)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

func fromJSONRecord(j jsonRecord) (Record, error) {
	subject, err := ParseRef(j.Subject)
	if err != nil {
		return Record{}, fmt.Errorf("%w: subject: %w", ErrMalformed, err)
	}
	if j.Attr == "" {
		return Record{}, fmt.Errorf("%w: empty attribute", ErrMalformed)
	}
	if j.IsStr {
		return Record{Subject: subject, Attr: j.Attr, Value: StringValue(j.Str)}, nil
	}
	ref, err := ParseRef(j.Ref)
	if err != nil {
		return Record{}, fmt.Errorf("%w: ref value: %w", ErrMalformed, err)
	}
	return Record{Subject: subject, Attr: j.Attr, Value: RefValue(ref)}, nil
}

// ChunkJSON packs records into JSON arrays of at most budget bytes each,
// preserving order across chunks. A single record whose encoding exceeds the
// budget is returned as its own oversized chunk; the caller (the WAL layer)
// must divert such records, exactly as the paper diverts >1 KB values to S3.
//
// The packing is exact: a JSON array is "[" + elements joined by "," + "]",
// so each record is marshaled once and sizes accumulate linearly.
func ChunkJSON(records []Record, budget int) ([][]byte, error) {
	if len(records) == 0 {
		return nil, nil
	}
	var chunks [][]byte
	var cur [][]byte
	curSize := 2 // "[" and "]"

	flush := func() {
		if len(cur) == 0 {
			return
		}
		buf := make([]byte, 0, curSize)
		buf = append(buf, '[')
		for i, enc := range cur {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, enc...)
		}
		buf = append(buf, ']')
		chunks = append(chunks, buf)
		cur, curSize = cur[:0], 2
	}

	for _, r := range records {
		enc, err := json.Marshal(toJSONRecord(r))
		if err != nil {
			return nil, err
		}
		extra := len(enc)
		if len(cur) > 0 {
			extra++ // comma
		}
		if len(cur) > 0 && curSize+extra > budget {
			flush()
			extra = len(enc)
		}
		cur = append(cur, enc)
		curSize += extra
	}
	flush()
	return chunks, nil
}
