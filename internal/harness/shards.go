package harness

import "sync/atomic"

// Shard-count plumbing, the -shards analogue of SetParallelism: a
// package-level knob the command-line front ends set once, consumed by
// benchConfig so every build path — RunBenchmark, the QD sweeps, the
// block-service front end via ConfigForProfile — shards identically.
// The default (1) builds a one-shard array, byte-identical to the
// pre-sharding harness.

var shardCount atomic.Int32

// SetShards sets how many LBA-range shards the I-CASH builds use.
// n <= 1 restores the one-shard array.
func SetShards(n int) {
	if n < 1 {
		n = 1
	}
	shardCount.Store(int32(n))
}

// Shards reports the configured shard count (>= 1).
func Shards() int {
	if n := int(shardCount.Load()); n > 0 {
		return n
	}
	return 1
}
