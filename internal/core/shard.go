package core

import (
	"fmt"

	"icash/internal/sim"
)

// ShardedController composes N independent controllers into one block
// device by contiguous LBA range: shard i owns virtual blocks
// [i*shardBlocks, (i+1)*shardBlocks). Each shard is a complete I-CASH
// instance — its own slot table, heatmap, delta cache and group-commit
// journal chain over its own SSD+HDD pair — so shards never share
// mutable state and a request touches exactly one shard.
//
// Determinism contract: the shards all read the one sim.Clock their
// builder passed to New, and ShardedController itself owns no clock and
// never advances one. Routing is a pure function of the LBA, every
// aggregate accessor walks the shards in index order, and Flush drains
// them in index order, so a run's output is byte-identical whatever
// worker count populated or drove it — the PR-5 forEachPoint discipline
// extended to request routing.
//
// Like Controller, ShardedController is not itself safe for concurrent
// use on one shard; callers that want cross-shard concurrency must hold
// a per-shard exclusion token (see server.ShardRouter). Two goroutines
// inside two *different* shards are safe by construction: the only
// cross-shard state is this struct's immutable routing table.
type ShardedController struct {
	shards      []*Controller
	shardBlocks int64
	blocks      int64
}

// NewSharded composes shards (all sized identically) into one LBA
// space. The uniform size keeps Route a divide — and, when the builder
// aligns shardBlocks to the VM image size, keeps every VM image whole
// within one shard so first-load pairing still sees its image-offset
// twins.
func NewSharded(shards []*Controller) (*ShardedController, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: NewSharded needs at least one shard")
	}
	per := shards[0].Blocks()
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("core: NewSharded: shard %d is nil", i)
		}
		if sh.Blocks() != per {
			return nil, fmt.Errorf("core: NewSharded: shard %d has %d blocks, want uniform %d",
				i, sh.Blocks(), per)
		}
	}
	return &ShardedController{
		shards:      shards,
		shardBlocks: per,
		blocks:      per * int64(len(shards)),
	}, nil
}

// ShardNamespace returns the station namespace of shard i in an array
// of n shards: "" when the array has one shard, "s<i>." otherwise. It
// is the one place station, fault-station and corruption-report names
// get their shard prefix, so a one-shard array keeps the plain device
// names ("ssd.ch0", "hdd0", "ssd") and every fault plan, detector name
// and report line written against them.
func ShardNamespace(n, i int) string {
	if n <= 1 {
		return ""
	}
	return fmt.Sprintf("s%d.", i)
}

// NumShards returns the shard count.
func (s *ShardedController) NumShards() int { return len(s.shards) }

// Shard returns shard i for per-shard inspection (journal counters,
// invariants, quarantine control).
func (s *ShardedController) Shard(i int) *Controller { return s.shards[i] }

// Shards returns the shard slice in index order. Callers must not
// mutate it.
func (s *ShardedController) Shards() []*Controller { return s.shards }

// ShardBlocks returns the per-shard capacity in blocks.
func (s *ShardedController) ShardBlocks() int64 { return s.shardBlocks }

// Route maps a global LBA to (shard index, shard-local LBA). It is the
// single routing function: the device path, the block service's session
// partitions and the inspection tools all agree on it.
func (s *ShardedController) Route(lba int64) (int, int64) {
	return int(lba / s.shardBlocks), lba % s.shardBlocks
}

// Blocks returns the composed capacity.
func (s *ShardedController) Blocks() int64 { return s.blocks }

func (s *ShardedController) checkRange(lba int64) error {
	if lba < 0 || lba >= s.blocks {
		return fmt.Errorf("core: sharded lba %d out of range (capacity %d)", lba, s.blocks)
	}
	return nil
}

// ReadBlock routes a read to its owning shard.
func (s *ShardedController) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := s.checkRange(lba); err != nil {
		return 0, err
	}
	si, local := s.Route(lba)
	return s.shards[si].ReadBlock(local, buf)
}

// WriteBlock routes a write to its owning shard.
func (s *ShardedController) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	if err := s.checkRange(lba); err != nil {
		return 0, err
	}
	si, local := s.Route(lba)
	return s.shards[si].WriteBlock(local, buf)
}

// Flush drains every shard in index order. The order is load-bearing
// for determinism: each shard's flush mutates only shard-local state,
// but the first error out decides the call's result.
func (s *ShardedController) Flush() error {
	for i, sh := range s.shards {
		if err := sh.Flush(); err != nil {
			return fmt.Errorf("core: shard %d flush: %w", i, err)
		}
	}
	return nil
}

// Stats sums the per-shard counters (index order; Accumulate walks
// every field, so histograms and embedded device stats aggregate too).
func (s *ShardedController) Stats() Stats {
	var total Stats
	for _, sh := range s.shards {
		st := sh.Stats
		total.Accumulate(&st)
	}
	return total
}

// KindCounts sums the block-population mix across shards.
func (s *ShardedController) KindCounts() KindCounts {
	var total KindCounts
	for _, sh := range s.shards {
		k := sh.KindCounts()
		total.Reference += k.Reference
		total.Associate += k.Associate
		total.Independent += k.Independent
	}
	return total
}

// DeltaRAMUsed sums the shards' delta-buffer occupancy.
func (s *ShardedController) DeltaRAMUsed() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.DeltaRAMUsed()
	}
	return total
}

// LiveSlotCount sums occupied SSD slots across shards.
func (s *ShardedController) LiveSlotCount() int {
	var total int
	for _, sh := range s.shards {
		total += sh.LiveSlotCount()
	}
	return total
}

// FreeSlotCount sums free SSD slots across shards.
func (s *ShardedController) FreeSlotCount() int {
	var total int
	for _, sh := range s.shards {
		total += sh.FreeSlotCount()
	}
	return total
}

// PoisonedBlocks sums unreadable (poisoned) blocks across shards.
func (s *ShardedController) PoisonedBlocks() int {
	var total int
	for _, sh := range s.shards {
		total += sh.PoisonedBlocks()
	}
	return total
}

// Degraded reports whether any shard has fallen into HDD-only degraded
// mode: one lost SSD degrades the LBA range it serves, and the array's
// service promise is only as strong as its weakest shard.
func (s *ShardedController) Degraded() bool {
	for _, sh := range s.shards {
		if sh.Degraded() {
			return true
		}
	}
	return false
}

// SSDQuarantined reports whether any shard currently serves around a
// soft-quarantined SSD.
func (s *ShardedController) SSDQuarantined() bool {
	for _, sh := range s.shards {
		if sh.SSDQuarantined() {
			return true
		}
	}
	return false
}

// ResetStats zeroes every shard's counters (after populate).
func (s *ShardedController) ResetStats() {
	for _, sh := range s.shards {
		sh.ResetStats()
	}
}

// SetScrub configures the background scrubber on every shard.
func (s *ShardedController) SetScrub(cfg ScrubConfig) {
	for _, sh := range s.shards {
		sh.SetScrub(cfg)
	}
}

// SetCorruptionHook installs fn on every shard, prefixing the device
// name with the shard's station namespace ("s2.ssd"; see
// ShardNamespace) so a chaos oracle can attribute a detection to the
// one faulted shard.
func (s *ShardedController) SetCorruptionHook(fn func(dev string, devLBA int64)) {
	for i, sh := range s.shards {
		prefix := ShardNamespace(len(s.shards), i)
		sh.SetCorruptionHook(func(dev string, devLBA int64) { fn(prefix+dev, devLBA) })
	}
}

// CheckInvariants runs every shard's invariant sweep, reporting the
// first violation by shard index.
func (s *ShardedController) CheckInvariants() error {
	for i, sh := range s.shards {
		if err := sh.CheckInvariants(); err != nil {
			return fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	return nil
}
