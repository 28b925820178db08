package hdd

import (
	"testing"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// BenchmarkHDDOp times one 4 KB operation of the disk model at a random
// LBA of a written 64 Ki-block drive: a write and a read, each with its
// seek, rotation and transfer arithmetic.
func BenchmarkHDDOp(b *testing.B) {
	const capacity = 64 << 10
	for _, op := range []string{"write", "read"} {
		b.Run(op, func(b *testing.B) {
			d := New(DefaultConfig(capacity))
			buf := make([]byte, blockdev.BlockSize)
			for lba := int64(0); lba < capacity; lba++ {
				if _, err := d.WriteBlock(lba, buf); err != nil {
					b.Fatal(err)
				}
			}
			r := sim.NewRand(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lba := int64(r.Intn(capacity))
				var err error
				if op == "write" {
					_, err = d.WriteBlock(lba, buf)
				} else {
					_, err = d.ReadBlock(lba, buf)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
