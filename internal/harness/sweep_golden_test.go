package harness

import (
	"testing"

	"icash/internal/golden"
	"icash/internal/workload"
)

// TestSweepGolden pins the RAID0 read and I-CASH write queue-depth
// sweeps byte for byte, station rows included, so a change to the
// event engine's queueing or to how a station renders shows up here.
func TestSweepGolden(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	opts := workload.Options{MaxOps: 2000, Seed: 42}
	var report string
	for _, sweep := range []func([]int, workload.Options) (string, error){QDSweep, WriteQDSweep} {
		out, err := sweep(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		report += out
	}
	golden.Check(t, "testdata/sweep.golden", report)
}
