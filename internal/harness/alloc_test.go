package harness

import (
	"runtime"
	"testing"

	"icash/internal/race"
	"icash/internal/workload"
)

// TestAllocGateRun gates the runner's own per-request allocations. It
// measures Run on RAID0 random reads — a stack whose devices allocate
// nothing per request — at two op counts, so set-up costs cancel and
// what remains is the cost per extra request: scheduling a token's next
// issue, tracing and replaying its blocks, and recording its latency
// must not touch the heap. Run by the CI alloc-gate step; skipped under
// -race, whose instrumentation adds allocations.
func TestAllocGateRun(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	p := workload.RandRead()
	mallocs := func(qd, ops int) uint64 {
		opts := workload.Options{Scale: QDSweepScale, MaxOps: ops, Seed: 42, QueueDepth: qd}
		sys, err := Build(RAID0, benchConfig(p, opts))
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(p, opts)
		if err := Populate(sys, gen); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(sys, gen); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const lo, hi = 2000, 6000
	for _, qd := range []int{1, 8} {
		extra := float64(mallocs(qd, hi)) - float64(mallocs(qd, lo))
		if got := extra / (hi - lo); got >= 0.01 {
			t.Errorf("QD=%d: Run allocated %.3f objects per extra request, want < 0.01", qd, got)
		}
	}
}
