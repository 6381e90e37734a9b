package replica

import (
	"testing"

	"bgcnk/internal/leakgate"
)

// TestMain fails the test binary if a simulation coroutine outlives the
// tests (an engine that was never shut down).
func TestMain(m *testing.M) { leakgate.Main(m) }
