package server

import (
	"testing"

	"icash/internal/golden"
	"icash/internal/workload"
)

// TestServeSweepGolden pins the served-vs-inproc window sweep byte for
// byte: both tables, the per-session station rows and the array's
// station rows.
func TestServeSweepGolden(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	report, err := ServeSweep(nil, workload.Options{MaxOps: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/servesweep.golden", report)
}
