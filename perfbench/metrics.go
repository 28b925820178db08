package main

import (
	"fmt"
	"strings"
	"time"

	"icash/internal/metrics"
	"icash/internal/sim"
)

// tailPercentile is the latency percentile the report prints beside
// the means. It needs at least 10 samples beyond it, so check fails a
// run with fewer than minTailSamples on either side.
const (
	tailPercentile = 99
	minTailSamples = 1000
)

// warm returns the untraced iterations after the first, whose host
// figures carry the process's warm-up (heap growth, first page faults).
func (b *bench) warm() []*iteration { return b.plain[1:] }

// endToEnd is what a user of the simulator sees: the simulated array's
// numbers (identical in every iteration of a seed) and the host cost of
// producing them (medians over the untraced iterations).
func (b *bench) endToEnd() []metric {
	its := b.warm()
	r := its[0].res
	ops := float64(r.Ops)
	fmt.Printf("%s: %d requests, %d block reads, %d block writes; %.0f requests per wall second (median)\n",
		b.spec.name, r.Ops, r.Reads, r.Writes,
		medianOf(its, func(it *iteration) float64 { return float64(it.res.Ops) / it.run.Seconds() }))
	for _, side := range []struct {
		name string
		h    *metrics.Histogram
	}{{"read", &r.ReadHist}, {"write", &r.WriteHist}} {
		fmt.Printf("  sim %-5s latency: p50 %v, p%d %v over %d samples (histogram bucket midpoints)\n",
			side.name, side.h.P50(), tailPercentile, side.h.Percentile(tailPercentile), side.h.Count())
	}
	return []metric{
		{"sim_req_per_s", r.ReqPerSec, "req/s"},
		{"ssd_writes_per_kreq", 1000 * float64(r.SSDHostWrites) / ops, "writes/kreq"},
		{"energy_mwh_per_kreq", 1000 * 1000 * r.WattHours / ops, "mWh/kreq"},
		{"host_req_per_cpu_s", medianOf(its, func(it *iteration) float64 {
			return float64(it.res.Ops) / it.runCPU.Seconds()
		}), "req/cpu_s"},
		{"setup_s", medianOf(its, func(it *iteration) float64 { return it.setup.Seconds() }), "s"},
		{"allocs_per_req", medianOf(its, func(it *iteration) float64 {
			return float64(it.mallocs) / float64(it.res.Ops)
		}), "allocs/req"},
		{"live_heap_mb", medianOf(its, func(it *iteration) float64 { return float64(it.liveHeap) / 1e6 }), "MB"},
	}
}

// perLayer splits the run by this repository's modules. Host times come
// from the spans of the traced iterations (medians); counters are
// simulated and read from the first traced iteration; the Go runtime's
// figures come from the untraced iterations, which tracing does not
// disturb.
func (b *bench) perLayer() []metric {
	its := b.traced
	it := its[0]
	r, c := it.res, &it.core
	ops := float64(r.Ops)
	runS := func(it *iteration) float64 { return it.run.Seconds() }
	runCPU := func(it *iteration) float64 { return it.runCPU.Seconds() }
	coreTime := func(it *iteration) time.Duration {
		var t time.Duration
		for _, name := range []string{"core.read", "core.write"} {
			for _, d := range it.tr.durations(name) {
				t += d
			}
		}
		return t
	}
	hostUS := func(name string, p99 bool) float64 {
		return medianOf(its, func(it *iteration) float64 {
			mean, tail := meanAndP99(it.tr.durations(name))
			if p99 {
				return tail
			}
			return mean
		})
	}
	ms := func(d sim.Duration) float64 { return d.Milliseconds() }

	var ssdUtil, hddUtil float64
	var stalls int64
	for _, st := range r.Stations {
		if strings.Contains(st.Name, "ssd") && st.Utilization > ssdUtil {
			ssdUtil = st.Utilization
		}
		if strings.Contains(st.Name, "hdd") && st.Utilization > hddUtil {
			hddUtil = st.Utilization
		}
		stalls += st.Stalls
	}
	hddOps := float64(it.hdd.Ops())

	out := []metric{
		{"harness.run_s", medianOf(its, runS), "s"},
		{"harness.self_s", medianOf(its, func(it *iteration) float64 {
			return it.tr.selfTime(it.runSpan).Seconds()
		}), "s"},
		{"harness.io_us_per_req", (r.ReadHist.Sum() + r.WriteHist.Sum()).Microseconds() / ops, "us"},
		{"harness.read_lat_mean_us", r.ReadHist.Mean().Microseconds(), "us"},
		{"harness.write_lat_mean_us", r.WriteHist.Mean().Microseconds(), "us"},
		{"harness.pagecache_hit_ratio", r.PageCacheHitRatio, "ratio"},
		{"harness.queue_wait_mean_us", r.QueueWait.Mean().Microseconds(), "us"},
		{"workload.gen_us_per_req", us(b.gen.elapsed) / float64(b.gen.requests), "us"},

		{"core.read_calls", float64(it.probeReads), "count"},
		{"core.write_calls", float64(it.probeWrites), "count"},
		{"core.read_host_us_mean", hostUS("core.read", false), "us"},
		{"core.read_host_us_p99", hostUS("core.read", true), "us"},
		{"core.write_host_us_mean", hostUS("core.write", false), "us"},
		{"core.write_host_us_p99", hostUS("core.write", true), "us"},
		{"core.host_share", medianOf(its, func(it *iteration) float64 {
			return coreTime(it).Seconds() / it.run.Seconds()
		}), "ratio"},
		{"core.ram_hit_ratio", ratio(float64(c.ReadRAMHits), float64(c.Reads)), "ratio"},
		{"core.ssd_hit_ratio", ratio(float64(c.ReadSSDHits), float64(c.Reads)), "ratio"},
		{"core.hdd_miss_ratio", ratio(float64(c.ReadHDDMisses), float64(c.Reads)), "ratio"},
		{"core.delta_write_ratio", ratio(float64(c.WriteDelta), float64(c.Writes)), "ratio"},
		{"core.delta_bytes_mean", c.AvgDeltaSize(), "B"},
		{"core.evict_data_ram", float64(c.EvictDataRAM), "count"},
		{"core.evict_delta_ram", float64(c.EvictDeltaRAM), "count"},
		{"core.writebacks_home", float64(c.WritebacksHome), "count"},
		{"core.txns_committed", float64(c.TxnsCommitted), "count"},
		{"core.commit_bytes_per_txn", ratio(float64(c.GroupCommitBytes), float64(c.TxnsCommitted)), "B"},
		{"core.commit_write_ms", ms(c.CommitWriteTime), "ms"},
		{"core.compactor_rescue_ratio", ratio(float64(c.DeltasRescued), float64(c.DeltasPacked)), "ratio"},
		{"core.log_blocks_written", float64(c.LogBlocksWritten), "count"},
		{"core.scan_reject_ratio", ratio(float64(c.ScanDeltaRejects), float64(c.ScanCandidates)), "ratio"},
		{"core.refs_selected", float64(c.RefsSelected), "count"},
		{"core.transient_retries", float64(c.TransientRetries), "count"},

		{"cpumodel.storage_cpu_ms", ms(it.storageCPU), "ms"},

		{"delta.encode_ns", b.delta.encodeNS, "ns"},
		{"delta.decode_ns", b.delta.decodeNS, "ns"},
		{"delta.bytes_per_block", b.delta.bytesPerBlock, "B"},

		{"ssd.reads", float64(it.ssd.Reads), "count"},
		{"ssd.host_writes", float64(it.ssd.HostWrites), "count"},
		{"ssd.write_amp", it.ssd.WriteAmplification(), "ratio"},
		{"ssd.erases", float64(it.ssd.Erases), "count"},
		{"ssd.gc_ms", ms(it.ssd.GCTime), "ms"},
		{"ssd.busy_ms", ms(it.ssd.ReadTime + it.ssd.WriteTime), "ms"},

		{"hdd.ops", hddOps, "count"},
		{"hdd.seek_ms", ms(it.hdd.SeekTime), "ms"},
		{"hdd.rotation_ms", ms(it.hdd.RotationTime), "ms"},
		{"hdd.sequential_ratio", ratio(float64(it.hdd.SequentialOps), hddOps), "ratio"},
		{"hdd.busy_ms", ms(it.hdd.ReadTime + it.hdd.WriteTime), "ms"},

		{"event.ssd_util_max", ssdUtil, "ratio"},
		{"event.hdd_util_max", hddUtil, "ratio"},
		{"event.queue_wait_p99_us", r.QueueWait.Quantile(0.99).Microseconds(), "us"},
		{"event.stalls", float64(stalls), "count"},

		{"runtime.gc_cycles", medianOf(b.warm(), func(it *iteration) float64 { return float64(it.gcCycles) }), "count"},
		{"runtime.gc_pause_ms", medianOf(b.warm(), func(it *iteration) float64 {
			return float64(it.gcPause) / float64(time.Millisecond)
		}), "ms"},
		{"runtime.alloc_bytes_per_req", medianOf(b.warm(), func(it *iteration) float64 {
			return float64(it.allocBytes) / ops
		}), "B/req"},

		{"trace.overhead_ratio", medianOf(its, runCPU)/medianOf(b.warm(), runCPU) - 1, "ratio"},
	}
	b.printDominant(coreTime)
	return out
}

// printDominant names the layer with the largest share of the measured
// phase's host time: the controller (core spans), the workload
// generator (standalone pass scaled to the run's requests), or the
// harness runner itself (what is left).
func (b *bench) printDominant(coreTime func(*iteration) time.Duration) {
	run := medianOf(b.traced, func(it *iteration) float64 { return it.run.Seconds() })
	coreS := medianOf(b.traced, func(it *iteration) float64 { return coreTime(it).Seconds() })
	genS := b.gen.elapsed.Seconds()
	shares := []struct {
		layer string
		share float64
	}{
		{"core", coreS / run},
		{"workload", genS / run},
		{"harness", (run - coreS - genS) / run},
	}
	top := shares[0]
	for _, s := range shares[1:] {
		if s.share > top.share {
			top = s
		}
	}
	fmt.Printf("dominant layer: %s (%.0f%% of harness.run; core %.0f%%, workload %.0f%%, harness %.0f%%)\n",
		top.layer, 100*top.share, 100*shares[0].share, 100*shares[1].share, 100*shares[2].share)
}
