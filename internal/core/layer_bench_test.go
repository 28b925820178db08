package core

import (
	"fmt"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// BenchmarkEvictDataRAM times one data-block replacement — a touch, a
// cacheData that overflows the budget, and the eviction of the coldest
// cached block — in LRUs of 4 Ki and 64 Ki tracked blocks of which at
// most 64 cache data. Every data-less block is colder than every cached
// one, the layout a tail scan paid for in full, so ns/op must not grow
// with the LRU size.
func BenchmarkEvictDataRAM(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("lru=%dKi", size>>10), func(b *testing.B) {
			const cached = 64
			cfg := NewDefaultConfig(int64(size), 64, 64<<10, cached*blockdev.BlockSize)
			cfg.MetadataBlocks = size
			c := newTestRig(b, cfg).c
			for lba := int64(0); lba < int64(size); lba++ {
				v := &vblock{lba: lba, hddHome: true}
				c.blocks[lba] = v
				c.lru.pushFront(v)
			}
			// Cycling through twice the budget's worth of blocks makes
			// every install past the first budget-full evict exactly one.
			cands := make([]*vblock, 2*cached)
			for i := range cands {
				cands[i] = c.blocks[int64(i)]
			}
			content := make([]byte, blockdev.BlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := cands[i%len(cands)]
				c.lru.moveToFront(v)
				if err := c.cacheData(v, content, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalCommit times one group commit alone: the dirty delta
// a write queued (outside the timer) drains into a one-part
// transaction. BenchmarkCommitFlush times the write and the flush
// together.
func BenchmarkJournalCommit(b *testing.B) {
	cfg := smallConfig()
	cfg.FlushPeriodOps = 0 // only the timed commit drains the queue
	cfg.FlushDirtyBytes = 1 << 30
	c := newTestRig(b, cfg).c
	base := genContent(sim.NewRand(88), 2, 0)
	if _, err := c.WriteBlock(9, base); err != nil {
		b.Fatal(err)
	}
	r := sim.NewRand(99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base[r.Intn(len(base))] = byte(r.Uint64())
		if _, err := c.WriteBlock(9, base); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.commitJournal(); err != nil {
			b.Fatal(err)
		}
	}
}
