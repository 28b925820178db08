// Package harness builds the five storage systems of the paper's
// evaluation (§4.4) on identical simulated devices, drives them with the
// workload generators, and renders every figure and table of §5.
package harness

import (
	"fmt"

	"icash/internal/baseline"
	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/cpumodel"
	"icash/internal/fault"
	"icash/internal/hdd"
	"icash/internal/raid"
	"icash/internal/sim"
	"icash/internal/sim/event"
	"icash/internal/ssd"
)

// Kind identifies one of the five storage systems under test.
type Kind int

const (
	// FusionIO is the pure-SSD baseline holding the whole data set.
	FusionIO Kind = iota
	// RAID0 stripes four simulated SATA disks.
	RAID0
	// Dedup is the content-deduplicating SSD cache over one disk.
	Dedup
	// LRU is the SSD LRU cache over one disk.
	LRU
	// ICASH is the paper's contribution.
	ICASH
)

// String returns the paper's label for the system.
func (k Kind) String() string {
	switch k {
	case FusionIO:
		return "FusionIO"
	case RAID0:
		return "RAID"
	case Dedup:
		return "Dedup"
	case LRU:
		return "LRU"
	case ICASH:
		return "I-CASH"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the systems in the paper's figure order.
func AllKinds() []Kind { return []Kind{FusionIO, RAID0, Dedup, LRU, ICASH} }

// BuildConfig sizes one system instance.
type BuildConfig struct {
	// DataBlocks is the virtual-disk size in blocks (the scaled data
	// set).
	DataBlocks int64
	// SSDCacheBlocks is the SSD provisioned for the cache systems and
	// I-CASH (FusionIO always gets the full data set).
	SSDCacheBlocks int64
	// DeltaRAMBytes and DataRAMBytes partition I-CASH's controller RAM.
	DeltaRAMBytes int64
	DataRAMBytes  int64
	// VMImageBlocks enables I-CASH's VM-offset pairing (0 = off).
	VMImageBlocks int64
	// Shards partitions the I-CASH array into that many independent
	// LBA-range shards, each a full controller over its own SSD+HDD
	// pair, composed under the one clock (<= 1 builds one shard;
	// ignored for the baseline systems). With more than one shard the
	// per-shard size is aligned up to VMImageBlocks when that is set,
	// so a VM image never straddles shards.
	Shards int
	// Tune overrides I-CASH controller parameters after the harness
	// defaults are applied (ablation studies).
	Tune func(*core.Config)

	// FaultSSD and FaultHDD, when non-nil, interpose deterministic
	// fault injectors between shard 0's controller and its devices
	// (robustness experiments; ignored for the baseline systems).
	// Faults are a per-device phenomenon, and pinning them to one shard
	// is what the blast-radius experiments measure: the other shards
	// keep serving. Their Clock and default Station names (under shard
	// 0's station namespace) are filled in by Build; a Plan on
	// either config is additionally installed as a station shaper, so
	// fail-slow windows inflate both the controller-visible latency and
	// the station occupancy under QD>1.
	FaultSSD *fault.Config
	FaultHDD *fault.Config

	// SlowDetector enables the fail-slow detector: station service
	// times feed a windowed-p99 watch (thresholds in instrument), and
	// the concurrent runner quarantines / re-admits the I-CASH SSD as
	// the flag flips.
	SlowDetector bool
}

// System is one storage configuration under test: the device stack plus
// its clock and CPU accountant.
type System struct {
	Kind  Kind
	Clock *sim.Clock
	CPU   *cpumodel.Accountant
	Dev   blockdev.Device

	// Component handles for statistics; nil when absent. SSD is a
	// baseline system's one SSD; I-CASH's SSDs are in SSDs.
	SSD   *ssd.Device
	HDDs  []*hdd.Device
	LRUc  *baseline.LRUCache
	Dedup *baseline.DedupCache
	Pure  *baseline.PureSSD
	RAID  *raid.Array0

	// ICASH is always nil: every I-CASH build is a ShardedController
	// (Sharded below), one shard when Shards <= 1.
	//
	// Deprecated: kept only because the perfbench module still reads
	// it. Read Sharded instead.
	ICASH *core.Controller

	// Sharded is the I-CASH array, one shard or more; shard i's SSD and
	// HDD are SSDs[i] and HDDs[i]. ShardCPUs holds one storage
	// accountant per shard — per-shard so the parallel populate fan
	// never shares a mutable accountant across workers; the aggregate
	// views below sum them with the system accountant.
	Sharded   *core.ShardedController
	SSDs      []*ssd.Device
	ShardCPUs []*cpumodel.Accountant
	// shardSSDNames caches the per-shard SSD station prefixes
	// ("ssd" on one shard, "s0.ssd", ... on more) so the per-request
	// detector poll allocates nothing.
	shardSSDNames []string

	// SSDFault and HDDFault are the fault injectors when the build
	// requested them; nil otherwise.
	SSDFault *fault.Device
	HDDFault *fault.Device

	// Tracer and Stations are the concurrency-engine hookup: every SSD
	// channel and HDD actuator is a service station, and devices note
	// their per-request service times through the tracer. The serial
	// (QD=1) path never begins a trace, so the stations stay idle there.
	Tracer   *event.Tracer
	Stations []*event.Server

	// Detector, when the build enabled it, watches station service
	// times; the concurrent runner polls it between requests to drive
	// SSD quarantine and re-admission on the I-CASH controller.
	Detector *fault.Detector

	flush func() error
}

// Name returns the paper's label.
func (s *System) Name() string { return s.Kind.String() }

// Flush drains any volatile state to durable media (end of run).
func (s *System) Flush() error {
	if s.flush == nil {
		return nil
	}
	return s.flush()
}

// ResetStats zeroes every statistics counter in the stack (after the
// unmeasured populate phase) and restarts the CPU utilization window.
func (s *System) ResetStats() {
	if s.SSD != nil {
		s.SSD.ResetStats()
	}
	for _, d := range s.SSDs {
		d.ResetStats()
	}
	for _, h := range s.HDDs {
		h.ResetStats()
	}
	if s.Sharded != nil {
		s.Sharded.ResetStats()
	}
	if s.LRUc != nil {
		s.LRUc.ResetStats()
	}
	if s.Dedup != nil {
		s.Dedup.ResetStats()
	}
	if s.Pure != nil {
		s.Pure.ResetStats()
	}
	if s.RAID != nil {
		s.RAID.ResetStats()
	}
	if s.SSDFault != nil {
		s.SSDFault.ResetStats()
	}
	if s.HDDFault != nil {
		s.HDDFault.ResetStats()
	}
	for _, st := range s.Stations {
		st.ResetStats()
	}
	s.CPU.Reset()
	for _, c := range s.ShardCPUs {
		c.Reset()
	}
}

// ssdStats returns the device-level SSD accounting: a baseline's one
// SSD, the sum across I-CASH's per-shard SSDs, nil when the stack has
// no SSD (RAID0).
func (s *System) ssdStats() *ssd.Stats {
	if s.SSD != nil {
		st := s.SSD.Stats
		return &st
	}
	if len(s.SSDs) == 0 {
		return nil
	}
	var total ssd.Stats
	for _, d := range s.SSDs {
		st := d.Stats
		total.Accumulate(&st)
	}
	return &total
}

// StorageCPUTime is the storage-stack CPU time across the system
// accountant and every per-shard accountant.
func (s *System) StorageCPUTime() sim.Duration {
	t := s.CPU.StorageTime
	for _, c := range s.ShardCPUs {
		t += c.StorageTime
	}
	return t
}

// CPUBusy is total CPU busy time (application + storage) across the
// system accountant and every per-shard accountant.
func (s *System) CPUBusy() sim.Duration {
	b := s.CPU.Busy()
	for _, c := range s.ShardCPUs {
		b += c.Busy()
	}
	return b
}

// instrument builds one service station per independently serving unit
// — each SSD channel, each HDD actuator — and connects the devices to
// the shared tracer. Called once at the end of Build. Fault plans from
// the build config become station shapers (a fail-slow window inflates
// station occupancy, not just the controller-visible latency), and the
// optional slow-device detector observes every station's shaped
// service times.
func (s *System) instrument(cfg BuildConfig) {
	// Detector thresholds. 2 ms sits well above an SSD channel's routine
	// service (tens of microseconds); the rare healthy ops beyond it —
	// writes that trigger GC pay an erase plus relocations — stay under
	// the detector's 5% flag fraction, while a fail-slow window pushes
	// ordinary writes past it in bulk. 100 ms likewise sits well above an
	// HDD actuator's routine seek plus rotation (around 10 ms).
	const (
		slowSSDThreshold = 2 * sim.Millisecond
		slowHDDThreshold = 100 * sim.Millisecond
	)
	s.Tracer = event.NewTracer()
	var ssdPlan, hddPlan *fault.Schedule
	if cfg.FaultSSD != nil {
		ssdPlan = cfg.FaultSSD.Plan
	}
	if cfg.FaultHDD != nil {
		hddPlan = cfg.FaultHDD.Plan
	}
	if cfg.SlowDetector {
		s.Detector = fault.NewDetector(0)
	}
	watch := func(srv *event.Server, threshold sim.Duration) {
		if s.Detector == nil {
			return
		}
		name := srv.Name()
		s.Detector.Watch(name, threshold)
		srv.SetObserver(func(svc sim.Duration) { s.Detector.Observe(name, svc) })
	}
	addSSD := func(dev *ssd.Device, prefix string) {
		n := dev.Config().Channels
		chans := make([]*event.Server, n)
		for i := range chans {
			chans[i] = event.NewServer(fmt.Sprintf("%sssd.ch%d", prefix, i), event.DefaultQueueCap)
			chans[i].SetShaper(ssdPlan.Shaper(chans[i].Name()))
			watch(chans[i], slowSSDThreshold)
			s.Stations = append(s.Stations, chans[i])
		}
		dev.Instrument(s.Tracer, chans)
	}
	addHDD := func(h *hdd.Device, name string) {
		srv := event.NewServer(name, event.DefaultQueueCap)
		srv.SetShaper(hddPlan.Shaper(srv.Name()))
		watch(srv, slowHDDThreshold)
		s.Stations = append(s.Stations, srv)
		h.Instrument(s.Tracer, srv)
	}
	if s.Sharded != nil {
		// I-CASH: shard i's stations live under its namespace, so on a
		// multi-shard array a fault window or detector verdict scoped
		// to "s0.ssd" touches exactly one shard's channels (the
		// schedule and detector both match dotted prefixes). A
		// one-shard array keeps the plain names.
		n := s.Sharded.NumShards()
		for i, dev := range s.SSDs {
			ns := core.ShardNamespace(n, i)
			s.shardSSDNames = append(s.shardSSDNames, ns+"ssd")
			addSSD(dev, ns)
		}
		for i, h := range s.HDDs {
			addHDD(h, core.ShardNamespace(n, i)+"hdd0")
		}
		return
	}
	if s.SSD != nil {
		addSSD(s.SSD, "")
	}
	for i, h := range s.HDDs {
		addHDD(h, fmt.Sprintf("hdd%d", i))
	}
}

// SetFill installs the workload's initial-content oracle on every
// device in the stack. Each I-CASH shard's devices see shard-local
// LBAs, so the oracle is installed through the routing translation
// (global = shard base + local).
func (s *System) SetFill(f blockdev.FillFunc) {
	if s.Sharded != nil {
		for i := range s.SSDs {
			s.SetShardFill(i, f)
		}
		return
	}
	if s.SSD != nil {
		s.SSD.SetFill(f)
	}
	for _, h := range s.HDDs {
		h.SetFill(f)
	}
	if s.RAID != nil {
		s.RAID.SetFill(f)
	}
}

// SetShardFill installs f — an oracle over *global* LBAs — on shard
// i's devices, translated to the shard's local address space. The
// sharded populate fan uses it with one generator clone per shard, so
// no two workers ever share the (non-thread-safe) oracle.
func (s *System) SetShardFill(i int, f blockdev.FillFunc) {
	base := int64(i) * s.Sharded.ShardBlocks()
	tf := func(lba int64, buf []byte) { f(base+lba, buf) }
	s.SSDs[i].SetFill(tf)
	s.HDDs[i].SetFill(tf)
}

// Build constructs a system of the given kind.
func Build(kind Kind, cfg BuildConfig) (*System, error) {
	if cfg.DataBlocks <= 0 {
		return nil, fmt.Errorf("harness: DataBlocks must be positive")
	}
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant(clock)
	s := &System{Kind: kind, Clock: clock, CPU: cpu}

	switch kind {
	case FusionIO:
		// The paper's ioDrive is far larger than any data set (80 GB vs
		// at most 17.5 GB), so the device runs at low utilization with
		// mild garbage collection. 4x the data set preserves that.
		devCfg := ssd.DefaultConfig(cfg.DataBlocks * 4)
		devCfg.CapacityBlocks = cfg.DataBlocks * 4
		s.SSD = ssd.New(devCfg)
		s.Pure = baseline.NewPureSSD(s.SSD, cpu)
		s.Dev = s.Pure
		s.flush = s.Pure.Flush

	case RAID0:
		const chunk, raidDisks = 32, 4 // the paper's 4-disk stripe
		stripe := int64(raidDisks) * chunk
		per := (cfg.DataBlocks + stripe - 1) / stripe * chunk
		members := make([]blockdev.Device, raidDisks)
		for i := range members {
			h := hdd.New(hdd.DefaultConfig(per))
			s.HDDs = append(s.HDDs, h)
			members[i] = h
		}
		arr, err := raid.NewArray0(members, chunk)
		if err != nil {
			return nil, err
		}
		s.RAID = arr
		s.Dev = arr
		s.flush = func() error { return nil }

	case Dedup:
		s.SSD = ssd.New(cachePartitionConfig(cacheBlocks(cfg)))
		h := hdd.New(hdd.DefaultConfig(cfg.DataBlocks))
		s.HDDs = []*hdd.Device{h}
		c := baseline.NewDedupCache(s.SSD, h, cpu)
		s.Dedup = c
		s.Dev = c
		s.flush = c.Flush

	case LRU:
		s.SSD = ssd.New(cachePartitionConfig(cacheBlocks(cfg)))
		h := hdd.New(hdd.DefaultConfig(cfg.DataBlocks))
		s.HDDs = []*hdd.Device{h}
		c := baseline.NewLRUCache(s.SSD, h, cpu)
		s.LRUc = c
		s.Dev = c
		s.flush = c.Flush

	case ICASH:
		if err := buildShardedICASH(s, cfg); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("harness: unknown system kind %d", kind)
	}
	s.instrument(cfg)
	return s, nil
}

// PollDetector drives SSD quarantine and re-admission on the I-CASH
// controller from the slow-device detector's current verdict. The
// concurrent runner calls it after every replayed block, so a flagged
// station sidetracks the SSD within one request and a recovered one
// re-admits it just as promptly. No-op when the build did not ask for
// a detector or the system is not I-CASH. Quarantine is per shard: a
// slow channel on s0's SSD sidetracks only s0; the other shards keep
// their read path.
func (s *System) PollDetector() {
	if s.Detector == nil || s.Sharded == nil {
		return
	}
	for i, name := range s.shardSSDNames {
		s.Sharded.Shard(i).SetSSDQuarantined(s.Detector.AnySlow(name))
	}
}

// icashConfig sizes one I-CASH controller over dataBlocks virtual
// blocks — one shard's slice of the disk (the whole disk on a one-shard
// array), so a shard is configured exactly like a small standalone
// controller.
func icashConfig(dataBlocks, ssdBlocks, deltaRAM, dataRAM, vmImageBlocks int64) core.Config {
	// The log must comfortably hold the live delta volume of a fully
	// delta-represented data set (a 4 KB log block packs roughly ten
	// deltas) plus cleaning headroom.
	logBlocks := dataBlocks / 2
	if logBlocks < 512 {
		logBlocks = 512
	}
	if logBlocks > 262144 {
		logBlocks = 262144
	}
	ccfg := core.NewDefaultConfig(dataBlocks, ssdBlocks, deltaRAM, dataRAM)
	ccfg.LogBlocks = logBlocks
	ccfg.VMImageBlocks = vmImageBlocks
	// The paper's scan period (2,000 I/Os) assumes a ~1M-block data
	// set; keep the scan frequency proportional on scaled-down runs
	// so reference selection keeps pace with the workload.
	scan := int(dataBlocks / 4)
	if scan > ccfg.ScanPeriod {
		scan = ccfg.ScanPeriod
	}
	if scan < 128 {
		scan = 128
	}
	ccfg.ScanPeriod = scan
	// Flush cadence scales the same way (the paper's 4,096-I/O
	// period assumes full-size runs).
	flush := int(dataBlocks / 8)
	if flush > ccfg.FlushPeriodOps {
		flush = ccfg.FlushPeriodOps
	}
	if flush < 64 {
		flush = 64
	}
	ccfg.FlushPeriodOps = flush
	ccfg.FlushDirtyBytes = ccfg.DeltaRAMBytes / 8
	// Virtual-block metadata is ~100 B per block (<0.3% of the data
	// size); track the whole virtual disk rather than thrash.
	ccfg.MetadataBlocks = int(dataBlocks) + 64
	return ccfg
}

// buildShardedICASH assembles the I-CASH array: cfg.Shards independent
// controllers (one when Shards <= 1), each over its own SSD+HDD pair
// sized to its LBA slice, composed with core.NewSharded under the
// system's one clock. When the array has more than one shard the data
// set, RAM budgets and SSD cache split evenly, and per-slice floors
// keep tiny shards viable; a one-shard array gets the budgets whole and
// unfloored. The fault injectors, when requested, attach to shard 0
// only, under its station namespace.
func buildShardedICASH(s *System, cfg BuildConfig) error {
	nsh := cfg.Shards
	if nsh < 1 {
		nsh = 1
	}
	per := cfg.DataBlocks
	ssdBlocks := cacheBlocks(cfg)
	deltaRAM := orDefault(cfg.DeltaRAMBytes, 32<<20)
	dataRAM := orDefault(cfg.DataRAMBytes, 32<<20)
	if nsh > 1 {
		per = (per + int64(nsh) - 1) / int64(nsh)
		if cfg.VMImageBlocks > 0 {
			// Align so no VM image straddles a shard boundary: the
			// session partitions of the block service map whole VMs to
			// shards, and first-load pairing needs image-offset twins
			// co-resident.
			per = (per + cfg.VMImageBlocks - 1) / cfg.VMImageBlocks * cfg.VMImageBlocks
		}
		ssdBlocks /= int64(nsh)
		if ssdBlocks < 64 {
			ssdBlocks = 64
		}
		deltaRAM /= int64(nsh)
		if min := per * 512; deltaRAM < min {
			deltaRAM = min
		}
		dataRAM /= int64(nsh)
		if dataRAM < 512<<10 {
			dataRAM = 512 << 10
		}
	}

	shards := make([]*core.Controller, nsh)
	for i := 0; i < nsh; i++ {
		ccfg := icashConfig(per, ssdBlocks, deltaRAM, dataRAM, cfg.VMImageBlocks)
		sdev := ssd.New(cachePartitionConfig(ssdBlocks))
		h := hdd.New(hdd.DefaultConfig(per + ccfg.LogBlocks))
		s.SSDs = append(s.SSDs, sdev)
		s.HDDs = append(s.HDDs, h)
		if cfg.Tune != nil {
			cfg.Tune(&ccfg)
		}
		var ssdDev, hddDev blockdev.Device = sdev, h
		if i == 0 && cfg.FaultSSD != nil {
			fc := *cfg.FaultSSD
			fc.Clock = s.Clock
			if fc.Station == "" {
				fc.Station = core.ShardNamespace(nsh, i) + "ssd"
			}
			s.SSDFault = fault.Wrap(ssdDev, fc)
			ssdDev = s.SSDFault
		}
		if i == 0 && cfg.FaultHDD != nil {
			fc := *cfg.FaultHDD
			fc.Clock = s.Clock
			if fc.Station == "" {
				fc.Station = core.ShardNamespace(nsh, i) + "hdd0"
			}
			s.HDDFault = fault.Wrap(hddDev, fc)
			hddDev = s.HDDFault
		}
		shardCPU := cpumodel.NewAccountant(s.Clock)
		s.ShardCPUs = append(s.ShardCPUs, shardCPU)
		ctrl, err := core.New(ccfg, ssdDev, hddDev, s.Clock, shardCPU)
		if err != nil {
			return fmt.Errorf("harness: shard %d: %w", i, err)
		}
		shards[i] = ctrl
	}
	sc, err := core.NewSharded(shards)
	if err != nil {
		return err
	}
	s.Sharded = sc
	s.Dev = sc
	// Flush fans across the shards: each drains only shard-local state,
	// results are index-gathered, and the first-index error wins — same
	// determinism argument as every other ForEachPoint use.
	s.flush = func() error {
		return ForEachPoint(sc.NumShards(), func(i int) error {
			if err := sc.Shard(i).Flush(); err != nil {
				return fmt.Errorf("harness: shard %d flush: %w", i, err)
			}
			return nil
		})
	}
	return nil
}

// cachePartitionConfig builds the SSD device for a cache-sized
// partition. The paper carves 128 MB - 1 GB partitions out of an 80 GB
// ioDrive, so the flash behind a partition is effectively heavily
// over-provisioned and garbage collection is mild; OverProvision = 1
// models that.
func cachePartitionConfig(blocks int64) ssd.Config {
	c := ssd.DefaultConfig(blocks)
	c.OverProvision = 1.0
	return c
}

// cacheBlocks returns the SSD size for the cache systems, defaulting to
// the paper's ~10% of the data set.
func cacheBlocks(cfg BuildConfig) int64 {
	if cfg.SSDCacheBlocks > 0 {
		return cfg.SSDCacheBlocks
	}
	b := cfg.DataBlocks / 10
	if b < 64 {
		b = 64
	}
	return b
}

func orDefault(v, def int64) int64 {
	if v > 0 {
		return v
	}
	return def
}
