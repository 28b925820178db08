package chaos

import (
	"strings"
	"testing"

	"icash/internal/golden"
)

// TestChaosGolden pins the one-line summaries of six default-config
// soaks byte for byte: fault windows, request stream, quarantine flips,
// latency histogram and integrity segment all feed the line, so any
// change to the simulated stack under faults shows up here.
func TestChaosGolden(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	var b strings.Builder
	for seed := uint64(42); seed <= 47; seed++ {
		res, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b.WriteString(res.String())
		b.WriteString("\n")
	}
	golden.Check(t, "testdata/chaos.golden", b.String())
}
