package integrity_test

import (
	"testing"

	"passcloud/internal/leakcheck"
)

// VerifyStores hashes on goroutines of its own; every one must have
// exited by the time it returns.
func TestMain(m *testing.M) { leakcheck.Main(m) }
