package harness

import (
	"fmt"
	"reflect"
	"testing"

	"icash/internal/workload"
)

// The scoreboard-equality battery: the parallel scheduler must not
// change a single simulated number, whatever the worker count. Each
// test runs the same entry point at parallelism 1 (the historical
// serial loop), 2, and 8 and demands deep equality — and, for the
// rendered entry points, byte-for-byte string equality. Run under
// -race these tests double as the data-race proof for the fan-out.

// withParallelism runs fn at the given worker count, restoring the
// previous setting afterwards so tests do not leak configuration.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := int(parallelism.Load())
	SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

// resultsOf strips a BenchmarkRun to its comparable payload: the
// per-system Results in order. SysSharded is a live controller handle
// (pointer identity differs run to run) and is excluded.
func resultsOf(br *BenchmarkRun) []*Result {
	out := make([]*Result, 0, len(br.Order))
	for _, k := range br.Order {
		out = append(out, br.Results[k])
	}
	return out
}

func TestRunBenchmarkSerialParallelIdentical(t *testing.T) {
	p := workload.SysBench()
	opts := workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42}
	var runs [][]*Result
	for _, n := range []int{1, 2, 8} {
		withParallelism(t, n, func() {
			br, err := RunBenchmark(p, opts, nil)
			if err != nil {
				t.Fatalf("parallelism %d: %v", n, err)
			}
			runs = append(runs, resultsOf(br))
		})
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0], runs[i]) {
			t.Fatalf("RunBenchmark results diverge between parallelism 1 and %d", []int{1, 2, 8}[i])
		}
	}
}

func TestRunExperimentsSerialParallelIdentical(t *testing.T) {
	ids := []string{"fig6a", "fig7", "table6-sysbench", "fig10a"}
	opts := workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42}
	var reports []string
	for _, n := range []int{1, 2, 8} {
		withParallelism(t, n, func() {
			out, err := RunExperiments(ids, opts)
			if err != nil {
				t.Fatalf("parallelism %d: %v", n, err)
			}
			reports = append(reports, out)
		})
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("RunExperiments report diverges between parallelism 1 and %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
				[]int{1, 2, 8}[i], reports[0], reports[i])
		}
	}
}

func TestQDSweepSerialParallelIdentical(t *testing.T) {
	opts := workload.Options{Scale: QDSweepScale, MaxOps: 1000, Seed: 42}
	depths := []int{1, 2, 4, 8}
	var reports []string
	for _, n := range []int{1, 2, 8} {
		withParallelism(t, n, func() {
			out, err := QDSweep(depths, opts)
			if err != nil {
				t.Fatalf("parallelism %d: %v", n, err)
			}
			reports = append(reports, out)
		})
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("QDSweep report diverges between parallelism 1 and %d", []int{1, 2, 8}[i])
		}
	}
}

func TestForEachPointOrderAndErrors(t *testing.T) {
	// Lowest-index error wins deterministically, at any worker count.
	for _, n := range []int{1, 3, 16} {
		withParallelism(t, n, func() {
			visited := make([]bool, 40)
			err := ForEachPoint(len(visited), func(i int) error {
				visited[i] = true
				if i == 7 || i == 23 {
					return errAt(i)
				}
				return nil
			})
			if err == nil || err.Error() != errAt(7).Error() {
				t.Fatalf("parallelism %d: got %v, want lowest-index error %v", n, err, errAt(7))
			}
			if n == 1 {
				// Serial mode stops at the first failure, like the
				// historical loop.
				for i := 8; i < len(visited); i++ {
					if visited[i] {
						t.Fatalf("serial mode ran index %d after failure at 7", i)
					}
				}
			}
		})
	}
}

func errAt(i int) error { return fmt.Errorf("point %d failed", i) }
