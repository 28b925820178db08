package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/harness"
	"icash/internal/hdd"
	"icash/internal/sim"
	"icash/internal/ssd"
	"icash/internal/workload"
)

// coreProbe is the blockdev.Device the benchmark installs on sys.Dev for
// the measured phase. It counts the calls the harness runner makes into
// the controller and, when tr is set, records one span per call as a
// child of the harness.run span.
type coreProbe struct {
	blockdev.Device
	reads, writes int64
	tr            *tracer
	parent        int
}

func (p *coreProbe) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	p.reads++
	if p.tr == nil {
		return p.Device.ReadBlock(lba, buf)
	}
	start := p.tr.now()
	d, err := p.Device.ReadBlock(lba, buf)
	p.tr.add("core.read", p.parent, start, p.tr.now())
	return d, err
}

func (p *coreProbe) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	p.writes++
	if p.tr == nil {
		return p.Device.WriteBlock(lba, buf)
	}
	start := p.tr.now()
	d, err := p.Device.WriteBlock(lba, buf)
	p.tr.add("core.write", p.parent, start, p.tr.now())
	return d, err
}

// iteration is one build + populate + run + check of a workload. Every
// field but the host timings and the tracer is simulated and repeats
// exactly for the same seed.
type iteration struct {
	// Host side: wall time, and the process's CPU time over the same
	// windows.
	setup, run       time.Duration
	setupCPU, runCPU time.Duration
	mallocs          uint64
	allocBytes       uint64
	gcCycles         uint32
	gcPause          time.Duration
	liveHeap         uint64
	tr               *tracer
	runSpan          int
	probeReads       int64
	probeWrites      int64
	readbackRead     int64

	// Simulated side.
	res        *harness.Result
	core       core.Stats
	ssd        ssd.Stats
	hdd        hdd.Stats
	storageCPU sim.Duration
	digest     string

	// Checks: failed counts failing LBAs and failing checks; problems
	// describes the first few.
	failed   int64
	problems []string
}

// iterate builds the I-CASH system for s at seed, populates it and runs
// the measured phase. tr, when non-nil, receives the spans of this
// iteration. With fullCheck set it also audits every controller and
// reads every LBA back against the oracle o returns for the device's
// block count; otherwise it only cross-checks the call counts, and the
// caller compares digests with a fully checked iteration.
func iterate(s spec, seed uint64, tr *tracer, fullCheck bool, o func(limit int64) *oracle) (*iteration, error) {
	it := &iteration{tr: tr}
	p, opts := s.profile, s.options(seed)
	cfg := s.buildConfig(seed)

	runtime.GC()
	start, startCPU := time.Now(), cpuTime()
	sp := 0
	if tr != nil {
		sp = tr.begin("harness.build", 0)
	}
	sys, err := harness.Build(harness.ICASH, cfg)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if tr != nil {
		tr.end(sp)
		sp = tr.begin("harness.populate", 0)
	}
	gen := workload.NewGenerator(p, opts)
	sys.SetFill(gen.Fill)
	if err := harness.Populate(sys, gen); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	if tr != nil {
		tr.end(sp)
	}
	it.setup, it.setupCPU = time.Since(start), cpuTime()-startCPU

	dev := sys.Dev
	probe := &coreProbe{Device: dev, tr: tr}
	sys.Dev = probe

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		it.runSpan = tr.begin("harness.run", 0)
		probe.parent = it.runSpan
	}
	start, startCPU = time.Now(), cpuTime()
	res, err := harness.Run(sys, gen)
	it.run, it.runCPU = time.Since(start), cpuTime()-startCPU
	if tr != nil {
		tr.end(it.runSpan)
	}
	runtime.ReadMemStats(&m1)
	sys.Dev = dev
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	it.res = res
	it.mallocs = m1.Mallocs - m0.Mallocs
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	it.gcCycles = m1.NumGC - m0.NumGC
	it.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	it.probeReads, it.probeWrites = probe.reads, probe.writes

	runtime.GC()
	runtime.ReadMemStats(&m1)
	it.liveHeap = m1.HeapAlloc

	it.collect(sys)
	it.checkCounts()
	if fullCheck {
		it.checkState(sys, o(dev.Blocks()))
	}
	return it, nil
}

// collect copies the simulated statistics out of sys and hashes them.
func (it *iteration) collect(sys *harness.System) {
	if sys.ICASH != nil {
		it.core = sys.ICASH.Stats
	} else {
		it.core = sys.Sharded.Stats()
	}
	ssds := sys.SSDs
	if sys.SSD != nil {
		ssds = []*ssd.Device{sys.SSD}
	}
	for _, d := range ssds {
		st := d.Stats
		it.ssd.Accumulate(&st)
	}
	for _, h := range sys.HDDs {
		st := h.Stats
		it.hdd.Stats.Add(st.Stats)
		it.hdd.Seeks += st.Seeks
		it.hdd.SeekTime += st.SeekTime
		it.hdd.RotationTime += st.RotationTime
		it.hdd.SequentialOps += st.SequentialOps
		it.hdd.BufferedWrites += st.BufferedWrites
		it.hdd.MediaErrors += st.MediaErrors
	}
	it.storageCPU = sys.StorageCPUTime()

	// The digest covers every simulated output: the Result (its pointer
	// fields by value), each device's and station's statistics, the
	// CPU accounts and the clock.
	h := sha256.New()
	r := *it.res
	r.ICASHStats, r.SSDFaultStats, r.HDDFaultStats = nil, nil, nil
	fmt.Fprintf(h, "%+v\n%+v\n", r, it.core)
	for _, d := range ssds {
		fmt.Fprintf(h, "%+v\n", d.Stats)
	}
	for _, d := range sys.HDDs {
		fmt.Fprintf(h, "%+v\n", d.Stats)
	}
	for _, st := range sys.Stations {
		fmt.Fprintf(h, "%+v\n", st.Snapshot(it.res.Elapsed))
	}
	fmt.Fprintf(h, "%d %d %d\n", sys.StorageCPUTime(), sys.CPUBusy(), sys.Clock.Now())
	it.digest = hex.EncodeToString(h.Sum(nil))
}

// fail counts one failed check and keeps the first few descriptions.
func (it *iteration) fail(format string, args ...any) {
	it.failed++
	if len(it.problems) < 8 {
		it.problems = append(it.problems, fmt.Sprintf(format, args...))
	}
}

// checkCounts compares the probe's call counts with the controller's
// and the runner's own, and makes sure the latency sides have samples
// enough for the tail percentile the report prints.
func (it *iteration) checkCounts() {
	if it.probeReads != it.core.Reads || it.probeWrites != it.core.Writes {
		it.fail("probe saw %d reads / %d writes, core.Stats has %d / %d",
			it.probeReads, it.probeWrites, it.core.Reads, it.core.Writes)
	}
	if it.probeReads != it.res.Reads || it.probeWrites != it.res.Writes {
		it.fail("probe saw %d reads / %d writes, Result has %d / %d",
			it.probeReads, it.probeWrites, it.res.Reads, it.res.Writes)
	}
	if n := it.res.ReadHist.Count(); n < minTailSamples {
		it.fail("%d read samples, p%d needs %d", n, tailPercentile, minTailSamples)
	}
	if n := it.res.WriteHist.Count(); n < minTailSamples {
		it.fail("%d write samples, p%d needs %d", n, tailPercentile, minTailSamples)
	}
}

// checkState runs the structural invariants and the journal audit of
// every controller, then reads every LBA back and compares it with the
// oracle.
func (it *iteration) checkState(sys *harness.System, o *oracle) {
	ctrls := []*core.Controller{sys.ICASH}
	if sys.Sharded != nil {
		ctrls = sys.Sharded.Shards()
	}
	for i, c := range ctrls {
		if err := c.CheckInvariants(); err != nil {
			it.fail("shard %d invariants: %v", i, err)
		}
		if _, err := c.AuditJournal(); err != nil {
			it.fail("shard %d journal audit: %v", i, err)
		}
	}

	sp := 0
	if it.tr != nil {
		sp = it.tr.begin("check.readback", 0)
	}
	got := make([]byte, blockdev.BlockSize)
	want := make([]byte, blockdev.BlockSize)
	n := sys.Dev.Blocks()
	if d := o.streams[0].DataBlocks(); d < n {
		n = d
	}
	for lba := int64(0); lba < n; lba++ {
		it.readbackRead++
		if _, err := sys.Dev.ReadBlock(lba, got); err != nil {
			it.fail("read back lba %d: %v", lba, err)
			continue
		}
		o.content(lba, want)
		if !bytes.Equal(got, want) {
			it.fail("read back lba %d: content differs from the workload's last write", lba)
		}
	}
	if it.tr != nil {
		it.tr.end(sp)
	}
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
