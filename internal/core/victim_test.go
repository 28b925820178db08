package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// This file checks the incremental victim structures — the stamp-keyed
// class heaps of the LRU and the held-log-block count — against the
// linear scans they replaced. Every eviction path reports its pick
// through victimCheck, and the check recomputes it with the old tail
// scan and recounts the free log blocks with the old frontier lap.

// scanDataVictim is the tail scan evictOneDataRAM used to run: the
// coldest block caching data, other than keep, the pinned block and
// the blocks passed over because their write-back failed.
func scanDataVictim(c *Controller, keep *vblock, skipped []*vblock) *vblock {
	for v := c.lru.tail; v != nil; v = v.prev {
		if v != keep && v != c.pinned && v.dataRAM != nil && !slices.Contains(skipped, v) {
			return v
		}
	}
	return nil
}

// scanWriteThroughVictim is the tail scan reclaimWriteThrough used to
// run: the coldest unpinned Independent block holding a slot.
func scanWriteThroughVictim(c *Controller) *vblock {
	for v := c.lru.tail; v != nil; v = v.prev {
		if v != c.pinned && v.slotRef != nil && v.kind == Independent {
			return v
		}
	}
	return nil
}

// scanSlotVictim is the tail scan reclaimSlot used to run: the coldest
// write-through, else the coldest donor-only reference.
func scanSlotVictim(c *Controller) *vblock {
	var writeThrough, donorOnly *vblock
	for v := c.lru.tail; v != nil; v = v.prev {
		if v == c.pinned || v.slotRef == nil {
			continue
		}
		if v.kind == Independent && writeThrough == nil {
			writeThrough = v
		}
		if v.kind == Reference && v.slotRef.refcnt == 1 && donorOnly == nil {
			donorOnly = v
		}
		if writeThrough != nil {
			break
		}
	}
	if writeThrough != nil {
		return writeThrough
	}
	return donorOnly
}

// lapFreeLogBlocks is the frontier lap countFreeLogBlocks used to run.
func lapFreeLogBlocks(c *Controller) int64 {
	a := c.newLogAlloc()
	n := int64(0)
	for {
		if _, ok := a.take(); !ok {
			return n
		}
		n++
	}
}

// victimChecker compares every pick of one controller with the scans
// and counts the picks per site.
type victimChecker struct {
	t     *testing.T
	shard int
	picks [3]int
}

func (vc *victimChecker) install(c *Controller) {
	c.victimCheck = func(site victimSite, keep, victim *vblock, skipped []*vblock) {
		vc.t.Helper()
		var want *vblock
		switch site {
		case siteEvictData:
			want = scanDataVictim(c, keep, skipped)
		case siteReclaimWriteThrough:
			want = scanWriteThroughVictim(c)
		case siteReclaimSlot:
			want = scanSlotVictim(c)
		}
		if victim != want {
			vc.t.Fatalf("shard %d site %d: heap picked %s, tail scan picks %s",
				vc.shard, site, lbaOf(victim), lbaOf(want))
		}
		if got, lap := c.countFreeLogBlocks(), lapFreeLogBlocks(c); got != lap {
			vc.t.Fatalf("shard %d site %d: countFreeLogBlocks=%d, lap counts %d", vc.shard, site, got, lap)
		}
		vc.picks[site]++
	}
}

func lbaOf(v *vblock) string {
	if v == nil {
		return "nothing"
	}
	return fmt.Sprintf("lba %d", v.lba)
}

// victimConfig squeezes every budget the eviction paths guard: eight
// data blocks, 8 KB of deltas and a 16-block log per shard, with 512
// blocks and 32 SSD slots split evenly across n shards.
func victimConfig(n int) Config {
	cfg := NewDefaultConfig(int64(512/n), int64(32/n), 8<<10, 8*blockdev.BlockSize)
	cfg.MetadataBlocks = 96
	cfg.ScanPeriod = 40
	cfg.ScanWindow = 96
	cfg.LogBlocks = 16
	cfg.FlushPeriodOps = 64
	cfg.FlushDirtyBytes = 8 << 10
	return cfg
}

// TestVictimHeapsMatchTailScan drives random reads, fresh writes and
// mutations of existing content through 1 and 4 shards, with one crash
// and recovery in the middle, and requires every eviction path to pick
// exactly the block the tail scan picked and the free-log count to equal
// the lap count, with CheckInvariants recounting both structures after
// every operation.
func TestVictimHeapsMatchTailScan(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			runVictimDifferential(t, n, 3000)
		})
	}
}

func runVictimDifferential(t *testing.T, n, ops int) {
	cfg := victimConfig(n)
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant(clock)
	ssds := make([]*blockdev.MemDevice, n)
	hdds := make([]*blockdev.MemDevice, n)
	checkers := make([]*victimChecker, n)
	shards := make([]*Controller, n)
	for i := range shards {
		ssds[i] = blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
		hdds[i] = blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
		c, err := New(cfg, ssds[i], hdds[i], clock, cpu)
		if err != nil {
			t.Fatalf("New shard %d: %v", i, err)
		}
		checkers[i] = &victimChecker{t: t, shard: i}
		checkers[i].install(c)
		shards[i] = c
	}
	sc, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}

	r := sim.NewRand(uint64(1000 + n))
	total := int(sc.Blocks())
	model := make(map[int64][]byte)
	// unsure holds LBAs written since the last Flush: after the crash
	// each reads back as its old or its new content, so the model
	// forgets them.
	unsure := make(map[int64]bool)
	buf := make([]byte, blockdev.BlockSize)
	crashAt := ops / 2

	for op := 0; op < ops; op++ {
		if op == crashAt {
			if err := sc.Flush(); err != nil {
				t.Fatalf("flush before crash: %v", err)
			}
			clear(unsure)
			// A few writes after the flush sit in RAM when the power goes.
			for i := 0; i < 24; i++ {
				lba := int64(r.Intn(total))
				if _, err := sc.WriteBlock(lba, genContent(r, int(lba%5), 0.03)); err != nil {
					t.Fatalf("pre-crash write lba %d: %v", lba, err)
				}
				unsure[lba] = true
			}
			for i := range shards {
				rc, err := Recover(cfg, ssds[i], hdds[i], clock, cpu)
				if err != nil {
					t.Fatalf("Recover shard %d: %v", i, err)
				}
				checkers[i].install(rc)
				shards[i] = rc
			}
			if sc, err = NewSharded(shards); err != nil {
				t.Fatalf("NewSharded after recovery: %v", err)
			}
			for lba := range unsure {
				delete(model, lba)
			}
		}

		lba := int64(r.Intn(total))
		switch p := r.Float64(); {
		case p < 0.2: // fresh, incompressible content
			content := make([]byte, blockdev.BlockSize)
			r.Bytes(content)
			if _, err := sc.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write lba %d: %v", op, lba, err)
			}
			model[lba] = content
		case p < 0.55: // mutation of existing or family content
			var content []byte
			if old, ok := model[lba]; ok {
				content = bytes.Clone(old)
				for i := 0; i < 1+r.Intn(64); i++ {
					content[r.Intn(len(content))] = byte(r.Uint64())
				}
			} else {
				content = genContent(r, int(lba%5), 0.0005)
			}
			if _, err := sc.WriteBlock(lba, content); err != nil {
				t.Fatalf("op %d: write lba %d: %v", op, lba, err)
			}
			model[lba] = content
		default:
			if _, err := sc.ReadBlock(lba, buf); err != nil {
				t.Fatalf("op %d: read lba %d: %v", op, lba, err)
			}
			if want, ok := model[lba]; ok && !bytes.Equal(buf, want) {
				t.Fatalf("op %d: read lba %d: content mismatch", op, lba)
			}
		}
		clock.Advance(20 * sim.Microsecond)
		if err := sc.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}

	var picks [3]int
	for _, vc := range checkers {
		for site, k := range vc.picks {
			picks[site] += k
		}
	}
	t.Logf("picks checked: evict data %d, reclaim write-through %d, reclaim slot %d",
		picks[siteEvictData], picks[siteReclaimWriteThrough], picks[siteReclaimSlot])
	for site, k := range picks {
		if k == 0 {
			t.Errorf("site %d never picked a victim: the workload does not exercise it", site)
		}
	}
}
