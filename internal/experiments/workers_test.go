package experiments

import (
	"testing"
)

// TestRenderWorkerInvariance is the replica runner's contract stated at
// the artifact level: the experiments that fan replicas — the mtbf
// fault-rate sweep, the boot comparison, the control-system throughput
// drain, the ioscale aggregation sweep, the degrade resilience sweep, the
// tracescale volume sweep and the crashes crash-rate sweep — must render
// byte-identically at 1, 2, and 8 workers. Each rerun repeats every cell
// of the sweep, so this is also a per-cell rerun-identity check. Most are
// golden-pinned, so any worker-count leak into a measured number or a
// rendered line fails twice over. Run under -race in CI.
func TestRenderWorkerInvariance(t *testing.T) {
	for _, id := range []string{"mtbf", "boot", "throughput", "ioscale", "degrade", "tracescale", "crashes"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			ref, err := Registry[id](Options{Quick: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := Registry[id](Options{Quick: true, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.Render() != ref.Render() {
					t.Errorf("workers=%d render differs from serial:\n--- workers=%d ---\n%s--- serial ---\n%s",
						workers, workers, got.Render(), ref.Render())
				}
			}
		})
	}
}
