package core

import (
	"fmt"
	"strconv"
	"strings"

	"passcloud/internal/prov"
)

// The stored layout's key scheme and reserved names, shared by all three
// architectures (ARCHITECTURE.md "Stored layout"). The record codecs live
// in internal/prov (encode.go), the value overflow codec in pointer.go;
// each store adds only the reserved names of its own protocol.
const (
	// DefaultBucket and DefaultDomain name the S3 bucket and the SimpleDB
	// domain a store creates when its Config names none.
	DefaultBucket = "pass"
	DefaultDomain = "provenance"

	// DataPrefix prefixes the keys of data objects; ProvPrefix those of
	// provenance kept in S3 objects of its own: >1 KB record values and
	// spill bundles, under "prov/<item name>/".
	DataPrefix = "data"
	ProvPrefix = "prov"

	// MetaVersion is the metadata key holding a data object's version;
	// MetaNonce the one holding the nonce of its consistency record ("the
	// nonce is typically the file version" plus entropy against reuse).
	MetaVersion = "x-ver"
	MetaNonce   = "x-nonce"
)

// DataKey returns the S3 key holding an object's data.
func DataKey(object prov.ObjectID) string { return DataPrefix + string(object) }

// ObjectOfKey reverses DataKey.
func ObjectOfKey(key string) prov.ObjectID {
	return prov.ObjectID(strings.TrimPrefix(key, DataPrefix))
}

// ProvKey names one S3 object holding part of a subject's provenance: a
// numbered >1 KB value, or a spill bundle. An empty leaf gives the prefix
// all of the subject's objects share.
func ProvKey(subject prov.Ref, leaf string) string {
	return ProvPrefix + "/" + prov.EncodeItemName(subject) + "/" + leaf
}

// StoredVersion reads the version a data object's metadata records.
func StoredVersion(meta map[string]string) (prov.Version, error) {
	v, err := strconv.Atoi(meta[MetaVersion])
	if err != nil {
		return 0, fmt.Errorf("%w: missing version metadata", prov.ErrMalformed)
	}
	return prov.Version(v), nil
}
