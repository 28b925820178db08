package harness

import (
	"testing"

	"icash/internal/core"
	"icash/internal/sim"
	"icash/internal/workload"
)

// TestQDScalingRAID0 is the tentpole's acceptance check: a 4-disk RAID0
// array serving uniform random reads must deliver at least 3x the QD=1
// throughput at QD=8 — four actuators genuinely seeking in parallel.
func TestQDScalingRAID0(t *testing.T) {
	p := workload.RandRead()
	throughput := func(qd int) float64 {
		opts := workload.Options{Scale: QDSweepScale, MaxOps: 4000, Seed: 42, QueueDepth: qd}
		br, err := RunBenchmark(p, opts, []Kind{RAID0})
		if err != nil {
			t.Fatal(err)
		}
		return br.Results[RAID0].ReqPerSec
	}
	base := throughput(1)
	got := throughput(8)
	if speedup := got / base; speedup < 3.0 {
		t.Fatalf("QD=8 speedup %.2fx (%.0f vs %.0f req/s), want >= 3x", speedup, got, base)
	}
}

// TestQDStations checks the per-station accounting of the event
// engine: every member disk serves work, utilizations rise with queue
// depth, and queue waits appear only when requests actually overlap.
func TestQDStations(t *testing.T) {
	p := workload.RandRead()
	run := func(qd int) *Result {
		opts := workload.Options{Scale: QDSweepScale, MaxOps: 2000, Seed: 42, QueueDepth: qd}
		br, err := RunBenchmark(p, opts, []Kind{RAID0})
		if err != nil {
			t.Fatal(err)
		}
		return br.Results[RAID0]
	}
	r1, r8 := run(1), run(8)

	if len(r1.Stations) != 4 {
		t.Fatalf("QD=1 station count %d, want 4 (one per member disk)", len(r1.Stations))
	}
	// RandRead on RAID0 triggers no background work, so one request in
	// flight never finds a member disk busy.
	if r1.QueueWait.Sum() != 0 {
		t.Fatalf("QD=1 run queued for %v in total, want 0", r1.QueueWait.Sum())
	}
	if r8.QueueDepth != 8 || r8.Streams != 1 {
		t.Fatalf("qd/streams = %d/%d, want 8/1", r8.QueueDepth, r8.Streams)
	}
	if len(r8.Stations) != 4 {
		t.Fatalf("station count %d, want 4 (one per member disk)", len(r8.Stations))
	}
	var lowest, highest float64 = 2, 0
	for _, st := range r8.Stations {
		if st.Ops == 0 {
			t.Fatalf("station %s served nothing", st.Name)
		}
		if st.Utilization < lowest {
			lowest = st.Utilization
		}
		if st.Utilization > highest {
			highest = st.Utilization
		}
	}
	if lowest < 0.3 || highest > 1.0 {
		t.Fatalf("QD=8 member utilizations outside [0.3, 1.0]: low %.2f high %.2f", lowest, highest)
	}
	if r8.QueueWait.Count() == 0 || r8.QueueWait.Mean() == 0 {
		t.Fatalf("QD=8 run recorded no queueing (%d waits)", r8.QueueWait.Count())
	}
}

// TestQD1DiskNeverOverbusy is the physical-consistency check on the
// one runner: at QD=1 on a system with one HDD, the actuator's busy
// time during the run — foreground and background work alike — cannot
// exceed the run's elapsed time, because the next request waits for
// the actuator to finish whatever the previous one left it doing.
//
// The hdd0 station's Busy is that in-run time: every device call of
// the run is traced and replayed onto it. Result.HDDBusy is larger by
// the end-of-run flush, which drains write-back state after the last
// request completes and so falls outside Elapsed; the check bounds it
// only from below.
func TestQD1DiskNeverOverbusy(t *testing.T) {
	for _, p := range []workload.Profile{workload.RandWrite(), workload.SPECsfs()} {
		opts := workload.Options{Scale: 1.0 / 256, Seed: 42}
		br, err := RunBenchmark(p, opts, []Kind{Dedup, LRU, ICASH})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range br.Order {
			r := br.Results[k]
			var busy sim.Duration
			for _, st := range r.Stations {
				if st.Name == "hdd0" {
					busy = st.Busy
				}
			}
			if busy == 0 {
				t.Fatalf("%s on %s: no in-run work on the hdd0 station", p.Name, k)
			}
			if busy > r.Elapsed {
				t.Errorf("%s on %s: HDD busy %v in a %v run", p.Name, k, busy, r.Elapsed)
			}
			if busy > r.HDDBusy {
				t.Errorf("%s on %s: station busy %v exceeds the device's %v", p.Name, k, busy, r.HDDBusy)
			}
		}
	}
}

// TestWriteSweepMonotone checks the I-CASH random-write sweep does not
// lose throughput going from QD=1 to QD=2: a second outstanding
// request overlaps the background disk work the first one left, so the
// run should not take longer. The options are WriteQDSweep's defaults at
// the golden's op count.
func TestWriteSweepMonotone(t *testing.T) {
	throughput := func(qd int) float64 {
		opts := workload.Options{Scale: QDSweepScale, MaxOps: 2000, Seed: 42, QueueDepth: qd,
			TuneICASH: func(c *core.Config) { c.LogBlocks = 128 }}
		br, err := RunBenchmark(workload.RandWrite(), opts, []Kind{ICASH})
		if err != nil {
			t.Fatal(err)
		}
		return br.Results[ICASH].ReqPerSec
	}
	if q1, q2 := throughput(1), throughput(2); q2 < q1 {
		t.Fatalf("RandWrite on I-CASH: %.0f req/s at QD=2 < %.0f at QD=1", q2, q1)
	}
}

// TestMultiStreamInterleave runs a 5-VM profile as per-VM streams and
// checks the streams genuinely overlap: same total work, five streams
// reported, and wall-clock well below the serialized run on the same
// storage.
func TestMultiStreamInterleave(t *testing.T) {
	p := workload.TPCC5VM()
	run := func(perVM bool) *Result {
		opts := workload.Options{Scale: 1.0 / 256, MaxOps: 2000, Seed: 42, StreamPerVM: perVM}
		br, err := RunBenchmark(p, opts, []Kind{FusionIO})
		if err != nil {
			t.Fatal(err)
		}
		return br.Results[FusionIO]
	}
	serial, streamed := run(false), run(true)

	if streamed.Streams != 5 || streamed.QueueDepth != 1 {
		t.Fatalf("streams/qd = %d/%d, want 5/1", streamed.Streams, streamed.QueueDepth)
	}
	if streamed.Ops != serial.Ops {
		t.Fatalf("streamed ops %d != serial ops %d", streamed.Ops, serial.Ops)
	}
	// Five interleaved streams on parallel-capable storage must beat one
	// serialized stream by a clear margin (not necessarily 5x: the SSD
	// has 4 channels and requests share them).
	if streamed.Elapsed >= serial.Elapsed {
		t.Fatalf("streamed run (%v) not faster than serialized (%v)", streamed.Elapsed, serial.Elapsed)
	}
	if ratio := serial.Elapsed.Seconds() / streamed.Elapsed.Seconds(); ratio < 1.5 {
		t.Fatalf("stream overlap only %.2fx over serial, want >= 1.5x", ratio)
	}
}

// TestVMStreamsPartition checks the per-VM generators stay inside their
// own image partitions and split the request budget exactly.
func TestVMStreamsPartition(t *testing.T) {
	p := workload.TPCC5VM()
	gen := workload.NewGenerator(p, workload.Options{Scale: 1.0 / 256, MaxOps: 5000, Seed: 7})
	streams := gen.VMStreams()
	if len(streams) != 5 {
		t.Fatalf("stream count %d, want 5", len(streams))
	}
	total := 0
	img := gen.ImageBlocks()
	for vi, s := range streams {
		if s.VM() != vi {
			t.Fatalf("stream %d pinned to VM %d", vi, s.VM())
		}
		n := 0
		for {
			req, ok := s.Next()
			if !ok {
				break
			}
			n++
			lo, hi := int64(vi)*img, int64(vi+1)*img
			if req.LBA < lo || req.LBA >= hi {
				t.Fatalf("stream %d request lba %d outside partition [%d, %d)", vi, req.LBA, lo, hi)
			}
		}
		if n != s.NumOps() {
			t.Fatalf("stream %d emitted %d of %d", vi, n, s.NumOps())
		}
		total += n
	}
	if total != gen.NumOps() {
		t.Fatalf("streams emitted %d total, want %d", total, gen.NumOps())
	}
}
