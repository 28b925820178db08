package harness

import (
	"fmt"
	"strings"

	"icash/internal/workload"
)

// ShardSweepStreams is the default number of interleaved per-VM
// request streams the shard sweep drives. Shard scaling only shows
// under real concurrency — one stream at QD 8 leaves every station
// mostly idle and throughput latency-bound — so the sweep models the
// many-VM consolidation the sharding exists for: streams x QueueDepth
// requests outstanding against the array.
const ShardSweepStreams = 64

// ShardSweep measures I-CASH throughput against shard count, for the
// random-read and random-write microbenchmarks driven by
// ShardSweepStreams per-VM streams at queue depth >= 8 each. Each
// shard owns its own SSD+HDD pair, so N shards expose N times the
// flash channels and disk arms; with hundreds of requests in flight
// the one-shard build saturates its devices and the sharded
// builds convert the extra hardware into throughput — the
// sharded-controller analogue of the RAID0 QD-scaling table.
//
// Every (profile, shard-count) point builds its own system and fans
// across Parallelism() workers; rendering in submission order keeps
// the table byte-identical at every worker and shard-worker count.
func ShardSweep(counts []int, opts workload.Options) (string, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	if opts.Scale <= 0 {
		opts.Scale = QDSweepScale
	}
	if opts.MaxOps <= 0 {
		opts.MaxOps = 16000
	}
	if opts.QueueDepth <= 1 {
		opts.QueueDepth = 8
	}
	opts.StreamPerVM = true
	profiles := []workload.Profile{workload.RandRead(), workload.RandWrite()}
	for i := range profiles {
		profiles[i].VMs = ShardSweepStreams
	}
	points := make([]pointResult, len(profiles)*len(counts))
	var firstErr error
	err := ForEachPoint(len(points), func(i int) error {
		p := profiles[i/len(counts)]
		o := opts
		cfg := benchConfig(p, o)
		cfg.Shards = counts[i%len(counts)]
		pt, err := runPoint(p, o, cfg, ICASH)
		if err != nil {
			return err
		}
		points[i] = pt
		return nil
	})
	var b strings.Builder
	for pi, p := range profiles {
		fmt.Fprintf(&b, "=== shardsweep: %s on I-CASH (scale %.5f, %d ops, %d streams, qd %d) ===\n",
			p.Name, opts.Scale, opts.MaxOps, p.VMs, opts.QueueDepth)
		base := 0.0
		for ci, n := range counts {
			pt := points[pi*len(counts)+ci]
			if pt.res == nil {
				firstErr = err
				break
			}
			r := pt.res
			if base == 0 {
				base = r.ReqPerSec
			}
			fmt.Fprintf(&b, "shards=%-2d req/s=%8.0f speedup=%5.2fx elapsed=%v\n",
				n, r.ReqPerSec, r.ReqPerSec/base, r.Elapsed)
			// Per-shard journal accounting: group commit is a per-shard
			// chain, and balanced counters are the evidence the routing
			// spreads load rather than funneling it.
			b.WriteString("  journal:")
			for si, sh := range pt.sharded.Shards() {
				fmt.Fprintf(&b, " s%d[txns=%d bytes=%d]", si, sh.Stats.TxnsCommitted, sh.Stats.GroupCommitBytes)
			}
			b.WriteString("\n")
		}
	}
	return b.String(), firstErr
}
