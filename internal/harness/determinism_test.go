package harness

import (
	"reflect"
	"runtime"
	"testing"

	"icash/internal/workload"
)

// determinismCases covers the runner's issue modes (QD=1, QD>1, per-VM
// streams) on a single-machine and a multi-VM profile.
func determinismCases() []struct {
	name string
	p    workload.Profile
	opts workload.Options
} {
	return []struct {
		name string
		p    workload.Profile
		opts workload.Options
	}{
		{"sysbench-qd1", workload.SysBench(),
			workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42}},
		{"sysbench-qd8", workload.SysBench(),
			workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42, QueueDepth: 8}},
		{"tpcc5vm-streams", workload.TPCC5VM(),
			workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42, QueueDepth: 4, StreamPerVM: true}},
	}
}

// TestDeterminismAcrossGOMAXPROCS runs every system on each case
// repeatedly under different GOMAXPROCS settings and requires the
// Result structs — every counter, histogram bucket, and station
// snapshot — to be byte-identical. Run under -race this also proves the
// engine shares no state across goroutines: simulated time is
// single-threaded by construction.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, tc := range determinismCases() {
		t.Run(tc.name, func(t *testing.T) {
			var first map[Kind]*Result
			for run, procs := range []int{1, runtime.NumCPU(), 2} {
				runtime.GOMAXPROCS(procs)
				br, err := RunBenchmark(tc.p, tc.opts, nil)
				if err != nil {
					t.Fatalf("run %d (GOMAXPROCS=%d): %v", run, procs, err)
				}
				if run == 0 {
					first = br.Results
					continue
				}
				for _, k := range AllKinds() {
					if !reflect.DeepEqual(first[k], br.Results[k]) {
						t.Errorf("run %d (GOMAXPROCS=%d): %s result differs:\n got %+v\nwant %+v",
							run, procs, k, br.Results[k], first[k])
					}
				}
			}
		})
	}
}
