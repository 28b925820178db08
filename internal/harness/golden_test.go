package harness

import (
	"testing"

	"icash/internal/golden"
	"icash/internal/workload"
)

// TestScoreboardGolden pins the whole scoreboard — every experiment of
// every benchmark, all five systems — at a reduced scale, byte for
// byte. The simulation is deterministic, so any change to a simulated
// number shows up here; a change that moves a row must explain it.
func TestScoreboardGolden(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	report, err := RunExperiments([]string{"all"}, workload.Options{Scale: 1.0 / 2048, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/scoreboard.golden", report)
}
