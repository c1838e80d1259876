package core

import (
	"strings"

	"passcloud/internal/prov"
)

// Provenance values that exceed a backend's value-size limit are stored as
// separate S3 objects and referenced by pointer (paper §4.1/§4.2: "we store
// any record larger than 1KB in a separate S3 object"). A pointer value is
// the overflow object's key prefixed with pointerMark; literal values that
// happen to begin with the mark are escaped by doubling it.
const pointerMark = "\x1e"

// PointerValue renders an overflow pointer to the given S3 key.
func PointerValue(key string) string { return pointerMark + key }

// EscapeLiteral protects a literal value from being misread as a pointer.
func EscapeLiteral(v string) string {
	if strings.HasPrefix(v, pointerMark) {
		return pointerMark + pointerMark + v[1:]
	}
	return v
}

// DecodeValue classifies a stored value: a pointer (returning the key) or a
// literal (returning the unescaped value).
func DecodeValue(v string) (key string, literal string, isPointer bool) {
	if !strings.HasPrefix(v, pointerMark) {
		return "", v, false
	}
	rest := v[1:]
	if strings.HasPrefix(rest, pointerMark) {
		return "", pointerMark + rest[1:], false // escaped literal
	}
	return rest, "", true
}

// OverflowThreshold is the record-value size above which the paper diverts
// the value to its own S3 object (1 KB).
const OverflowThreshold = 1 << 10

// EncodeValue returns a record in stored form. It is the one place that
// decides a value overflows: a string value over the threshold goes to its
// own S3 object — put names the object, writes it and returns its key
// ("There are 24,952 such records that result in an equal number of
// additional PUT operations") — and a pointer is stored; any other string
// is stored as an escaped literal, and a reference as it is.
func EncodeValue(rec prov.Record, put func(value string) (key string, err error)) (prov.Record, error) {
	if rec.Value.Kind != prov.KindString {
		return rec, nil
	}
	if len(rec.Value.Str) <= OverflowThreshold {
		rec.Value.Str = EscapeLiteral(rec.Value.Str)
		return rec, nil
	}
	key, err := put(rec.Value.Str)
	if err != nil {
		return rec, err
	}
	rec.Value.Str = PointerValue(key)
	return rec, nil
}

// ResolveRecords turns decoded records from stored form back into the
// originals. A non-empty spillKey names the spill bundle — the records that
// did not fit a carrier's metadata or an item's attribute list, themselves
// in stored form — which is fetched and appended first. Then every string
// value is resolved in place: literals unescaped, pointers fetched through
// get (one GET each). It is the one place pointers are resolved.
func ResolveRecords(records []prov.Record, spillKey string, get func(key string) ([]byte, error)) ([]prov.Record, error) {
	if spillKey != "" {
		blob, err := get(spillKey)
		if err != nil {
			return nil, err
		}
		spilled, err := prov.UnmarshalJSONRecords(blob)
		if err != nil {
			return nil, err
		}
		records = append(records, spilled...)
	}
	for i := range records {
		v := &records[i].Value
		if v.Kind != prov.KindString {
			continue
		}
		key, literal, isPointer := DecodeValue(v.Str)
		if isPointer {
			body, err := get(key)
			if err != nil {
				return nil, err
			}
			literal = string(body)
		}
		v.Str = literal
	}
	return records, nil
}

// Pushable reports whether a filter value's stored form stays inline:
// values over the overflow threshold are stored as S3 pointers, which the
// SimpleDB index cannot match by equality, so neither a member's pushdown
// plan nor the router's multi-hop rounds can carry them in an expression.
func Pushable(v string) bool { return len(v) <= OverflowThreshold }
