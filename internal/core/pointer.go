package core

import "strings"

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

// Pushable reports whether a filter value's stored form stays inline:
// values over the overflow threshold are stored as S3 pointers, which the
// SimpleDB index cannot match by equality, so neither a member's pushdown
// plan nor the router's multi-hop rounds can carry them in an expression.
func Pushable(v string) bool { return len(v) <= OverflowThreshold }
