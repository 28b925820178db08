package harness

import (
	"fmt"
	"reflect"
	"testing"

	"icash/internal/workload"
)

// Sharded scoreboard-equality battery: at every shard count, the run's
// numbers must be identical whatever the worker count — ForEachPoint
// fans the per-shard populate and the per-point builds, and none of it
// may change a simulated value. Under -race these tests double as the
// data-race proof for the per-shard fan (fresh generators, per-shard
// accountants, frozen clock).

func TestRunBenchmarkShardedSerialParallelIdentical(t *testing.T) {
	p := workload.SysBench()
	for _, shards := range []int{1, 2, 8} {
		opts := workload.Options{Scale: 1.0 / 256, MaxOps: 1200, Seed: 42, Shards: shards}
		var runs [][]*Result
		for _, n := range []int{1, 2, 8} {
			withParallelism(t, n, func() {
				br, err := RunBenchmark(p, opts, []Kind{ICASH})
				if err != nil {
					t.Fatalf("shards %d parallelism %d: %v", shards, n, err)
				}
				if got := br.SysSharded.NumShards(); got != shards {
					t.Fatalf("shards %d parallelism %d: built %d shards", shards, n, got)
				}
				runs = append(runs, resultsOf(br))
			})
		}
		for i := 1; i < len(runs); i++ {
			if !reflect.DeepEqual(runs[0], runs[i]) {
				t.Fatalf("shards %d: results diverge between parallelism 1 and %d",
					shards, []int{1, 2, 8}[i])
			}
		}
	}
}

// TestShardSweepSerialParallelIdentical pins the whole sweep report —
// every profile, every shard count, the per-shard journal breakout —
// to byte equality across worker counts. The sweep's own populate runs
// through the sharded ForEachPoint fan, so this is the end-to-end
// "same bytes at every shard-worker count" check.
func TestShardSweepSerialParallelIdentical(t *testing.T) {
	opts := workload.Options{Scale: QDSweepScale, MaxOps: 2000, Seed: 42}
	counts := []int{1, 2, 4}
	var reports []string
	for _, n := range []int{1, 2, 8} {
		withParallelism(t, n, func() {
			out, err := ShardSweep(counts, opts)
			if err != nil {
				t.Fatalf("parallelism %d: %v", n, err)
			}
			reports = append(reports, out)
		})
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("ShardSweep report diverges between parallelism 1 and %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
				[]int{1, 2, 8}[i], reports[0], reports[i])
		}
	}
}

// TestShardedPopulateMatchesSerial builds the same sharded system twice
// and populates once through the parallel fan and once with the fan
// forced serial; every device byte and every counter must agree, and
// the composed device must serve back exactly the generator's content.
func TestShardedPopulateMatchesSerial(t *testing.T) {
	p := workload.RandRead()
	opts := workload.Options{Scale: 1.0 / 256, MaxOps: 400, Seed: 7}
	cfg := ConfigForProfile(p, opts)
	cfg.Shards = 4

	build := func(workers int) *System {
		var sys *System
		withParallelism(t, workers, func() {
			s, err := Build(ICASH, cfg)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			gen := workload.NewGenerator(p, opts)
			if err := Populate(s, gen); err != nil {
				t.Fatalf("populate (workers=%d): %v", workers, err)
			}
			sys = s
		})
		return sys
	}
	serial := build(1)
	fanned := build(8)

	if serial.Sharded == nil || fanned.Sharded == nil {
		t.Fatal("expected sharded builds")
	}
	for i := 0; i < serial.Sharded.NumShards(); i++ {
		a, b := serial.Sharded.Shard(i).Stats, fanned.Sharded.Shard(i).Stats
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shard %d stats diverge between worker counts:\nserial: %+v\nfanned: %+v", i, a, b)
		}
		ka, kb := serial.Sharded.Shard(i).KindCounts(), fanned.Sharded.Shard(i).KindCounts()
		if ka != kb {
			t.Errorf("shard %d kind counts diverge: %+v vs %+v", i, ka, kb)
		}
	}
	if serial.Clock.Now() != fanned.Clock.Now() {
		t.Errorf("clocks diverge: %v vs %v", serial.Clock.Now(), fanned.Clock.Now())
	}

	// Read-back oracle: the composed device serves the generator's
	// content for every populated LBA.
	gen := workload.NewGenerator(p, opts)
	n := gen.DataBlocks()
	if n > fanned.Sharded.Blocks() {
		n = fanned.Sharded.Blocks()
	}
	want := make([]byte, 4096)
	got := make([]byte, 4096)
	for lba := int64(0); lba < n; lba++ {
		gen.Fill(lba, want)
		if _, err := fanned.Sharded.ReadBlock(lba, got); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("content mismatch at lba %d after fanned populate", lba)
		}
	}
}

// TestBuildShardedShapes checks the one I-CASH build path at 0, 1 and
// 4 shards: shard count, per-shard slices, the deprecated ICASH handle
// staying nil, and the station namespace rule (plain names on a
// one-shard array, "s<i>." prefixes once there are several).
func TestBuildShardedShapes(t *testing.T) {
	for _, tc := range []struct {
		shards     int
		wantShards int
		// shardBlocks is the per-shard size: the whole disk on one
		// shard; 4096/4 = 1024 aligned up to a multiple of 96 on four.
		shardBlocks int64
		stations    []string
	}{
		{0, 1, 4096, []string{"ssd.ch0", "ssd.ch1", "ssd.ch2", "ssd.ch3", "hdd0"}},
		{1, 1, 4096, []string{"ssd.ch0", "ssd.ch1", "ssd.ch2", "ssd.ch3", "hdd0"}},
		{4, 4, 1056, nil},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			cfg := BuildConfig{DataBlocks: 4096, Shards: tc.shards, VMImageBlocks: 96}
			sys, err := Build(ICASH, cfg)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			sc := sys.Sharded
			if sc == nil {
				t.Fatal("Sharded not set")
			}
			if sys.ICASH != nil {
				t.Error("the deprecated ICASH handle must stay nil")
			}
			if sc.NumShards() != tc.wantShards {
				t.Errorf("NumShards = %d, want %d", sc.NumShards(), tc.wantShards)
			}
			if sc.ShardBlocks() != tc.shardBlocks {
				t.Errorf("ShardBlocks = %d, want %d", sc.ShardBlocks(), tc.shardBlocks)
			}
			n := tc.wantShards
			if len(sys.SSDs) != n || len(sys.HDDs) != n || len(sys.ShardCPUs) != n {
				t.Errorf("per-shard slices sized %d/%d/%d, want %d each",
					len(sys.SSDs), len(sys.HDDs), len(sys.ShardCPUs), n)
			}
			wantStations := n * (4 + 1) // 4 channels + 1 actuator per shard
			if len(sys.Stations) != wantStations {
				t.Errorf("stations = %d, want %d", len(sys.Stations), wantStations)
			}
			var names []string
			for _, st := range sys.Stations {
				names = append(names, st.Name())
			}
			if tc.stations != nil {
				if !reflect.DeepEqual(names, tc.stations) {
					t.Errorf("stations = %q, want %q", names, tc.stations)
				}
				return
			}
			// Several shards: every station name carries its shard prefix.
			for _, name := range names {
				if name[0] != 's' || name[2] != '.' {
					t.Errorf("station %q lacks a shard prefix", name)
				}
			}
		})
	}
}

func TestShardSweepScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("shard sweep in -short mode")
	}
	opts := workload.Options{Seed: 42}
	out, err := ShardSweep([]int{1, 4}, opts)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	// The acceptance bound: 4 shards must at least double both the
	// random-read and random-write throughput of the one-shard
	// build at QD>=8. Parse the speedup column of each table's last row.
	var speedups []float64
	for _, line := range splitLines(out) {
		var n int
		var reqs, sp float64
		if _, err := fmt.Sscanf(line, "shards=%d req/s=%f speedup=%fx", &n, &reqs, &sp); err == nil && n == 4 {
			speedups = append(speedups, sp)
		}
	}
	if len(speedups) != 2 {
		t.Fatalf("expected 2 shards=4 rows in sweep output, got %d:\n%s", len(speedups), out)
	}
	for i, sp := range speedups {
		if sp < 2.0 {
			t.Errorf("profile %d: shards=4 speedup %.2fx < 2x:\n%s", i, sp, out)
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
