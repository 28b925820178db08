// Package chaos is the deterministic chaos-soak harness: randomized
// but fully seeded fail-slow and fail-stop fault schedules driven
// against the I-CASH stack at queue depth > 1, with an independent
// content oracle checking every read. One seed reproduces one
// byte-identical run — fault windows, request stream, quarantine
// flips and all — so a failing seed is a unit test, not a flake.
//
// A soak passes when the stack survives the schedule with its
// invariants intact and *no silent data loss*: every read either
// returns the content the oracle expects, or the mismatch is covered
// by the controller's own loss accounting (scrub losses, degraded
// losses, dropped log records). Data the stack lost and admitted to
// losing is a handled fault; data it lost quietly is a bug.
package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/fault"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/sim"
	"icash/internal/sim/event"
)

// Config parameterizes one soak run. The zero value of every field is
// a sensible default; only Seed normally varies between runs.
type Config struct {
	// Seed drives everything: the fault plan, the error-injection
	// PRNGs, and the request stream.
	Seed uint64
	// Ops is the measured operation budget (default 2000).
	Ops int
	// LBASpace is the virtual-disk size in blocks (default 512).
	LBASpace int64
	// QueueDepth is the closed-loop token count (default 8).
	QueueDepth int
	// WriteFrac is the write fraction of the measured stream
	// (default 0.3).
	WriteFrac float64
	// DisableHedge turns off both hedged reads and detector-driven
	// quarantine (the "no fail-slow handling" ablation arm).
	DisableHedge bool
	// NoFailStop disables the probabilistic media/transient error
	// rates, leaving a pure fail-slow run.
	NoFailStop bool
	// NoFailSlow disables the generated fail-slow plan, leaving a
	// pure fail-stop run.
	NoFailSlow bool
	// Plan overrides the generated fail-slow schedule. Its window
	// times are relative: From/To are offsets from the start of the
	// measured phase, shifted onto the simulated clock by Run.
	Plan *fault.Schedule

	// SilentFaults arms a generated silent-corruption plan for the
	// measured phase: scheduled windows of bit-flip-on-read,
	// misdirected writes, and lost writes on the SSD and HDD. The
	// devices lie (report success, wrong bytes); only the controller's
	// checksums can catch it, and the zero-undetected-corruption bound
	// below holds the controller to that.
	SilentFaults bool
	// SilentSSD / SilentHDD override the generated silent plan per
	// device (used with SilentFaults). Window times are relative, like
	// Plan.
	SilentSSD *fault.SilentPlan
	SilentHDD *fault.SilentPlan
	// ScrubInterval enables the background integrity scrubber with the
	// given batch interval (0 leaves it off). The scrubber arms at the
	// start of the measured phase.
	ScrubInterval sim.Duration

	// Shards partitions the array into N LBA-range shards (0 or 1 =
	// one shard). Every fault — fail-slow windows, probabilistic
	// fail-stop rates, silent corruption — lands on shard 0 only, under
	// its station namespace ("s0." once there are several shards): the
	// soak then checks both that the faulted shard's loss stays
	// accounted and that the blast radius stops at the shard boundary
	// (the other shards' invariants must hold with zero fault traffic).
	Shards int
}

// Result is one soak's complete accounting. It contains no pointers,
// so two Results from identical runs compare equal with
// reflect.DeepEqual — the determinism tests rely on that.
type Result struct {
	Seed uint64

	Ops    int64
	Reads  int64
	Writes int64
	// OpErrors counts operations the stack gave up on (deadline
	// give-ups, unhealed faults). The op failed loudly; the oracle
	// does not advance for failed writes.
	OpErrors int64
	// WrongReads counts successful reads whose content did not match
	// any oracle-acceptable version; WrongLBAs is the number of
	// distinct blocks affected (the unit the loss counters speak in).
	WrongReads int64
	WrongLBAs  int64
	// AccountedLoss is the controller's own admitted data loss:
	// scrub losses + degraded losses + dropped log records.
	AccountedLoss int64

	ReadHist  metrics.Histogram
	WriteHist metrics.Histogram
	Elapsed   sim.Duration

	// SlowOps / SlowTime aggregate the station-level fail-slow
	// inflation across every SSD channel and HDD actuator; Stations
	// keeps the per-station scoreboard (service/wait percentiles).
	SlowOps  int64
	SlowTime sim.Duration
	Stations []metrics.StationStats

	Stats    core.Stats
	SSDFault fault.Stats
	HDDFault fault.Stats
	// DetectLat is the corruption detection-latency distribution:
	// simulated time from a silent injection to the checksum that
	// caught it. SilentUncaught counts injected damage still
	// outstanding at the end of the run (cold blocks never re-read —
	// damage that never became host-visible).
	DetectLat      metrics.Histogram
	SilentUncaught int64
	// DetectorFlags / DetectorClears total the slow-detector's
	// flag / re-admit transitions across all watched stations.
	DetectorFlags  int64
	DetectorClears int64
	// Quarantined reports whether the run *ended* with the SSD still
	// quarantined (Stats.QuarantineEvents counts the flips).
	Quarantined bool
}

// oracle state for one block: the exact content the last successful
// write installed, plus (after a failed write) the content that may or
// may not have landed — an errored write leaves the block in one of
// two legitimate states, exactly like a real torn command. Full
// byte-for-byte copies, so the verifier catches any corruption, not
// just header swaps.
type lbaState struct {
	current []byte
	maybe   []byte // nil = none
}

// fillBlock writes the deterministic content of (lba, version). The
// LBA space is split into two content regimes so the soak exercises
// both halves of the I-CASH data path:
//
//   - every 4th block belongs to a similarity family: all members of a
//     family share a base pattern and differ only in a small header and
//     sparse per-version edits. Populate writes every member identical
//     (version 1), so the scan installs family references on the SSD,
//     and measured-phase rewrites delta-attach as associates — reads of
//     these blocks are reference-slot reads, the hedgeable path;
//   - the rest get unique incompressible content per (lba, version):
//     their deltas blow the threshold, so rewrites take the SSD
//     write-through path and keep program/erase pressure on the flash
//     channels — the traffic a fail-slow window turns into queue poison.
func fillBlock(buf []byte, lba int64, version uint64) {
	if lba%4 == 0 {
		fam := byte(101 + (lba/32)*17)
		for i := range buf {
			buf[i] = fam
		}
		binary.LittleEndian.PutUint64(buf[0:8], version)
		for i := 128; i < len(buf); i += 128 {
			buf[i] = byte(version)
		}
		return
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(lba)^0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(buf[8:16], version)
	pat := byte(uint64(lba)*131 + version*31)
	for i := 16; i < len(buf); i++ {
		buf[i] = pat
		if i%64 == 0 {
			buf[i] = byte(version)
		}
	}
}

// genPlan builds a randomized-but-seeded fail-slow schedule covering
// roughly the first half of the measured phase: one to three windows,
// each hitting the SSD or an HDD with a 10-100x slowdown, brownout
// jitter, or a short freeze. Offsets are relative (shifted by shift).
func genPlan(seed uint64, shift sim.Time, horizon sim.Duration) []fault.Window {
	rng := sim.NewRand(seed ^ 0xc4a5_0b5e_5eed_f001)
	n := 1 + rng.Intn(3)
	ws := make([]fault.Window, 0, n)
	for i := 0; i < n; i++ {
		from := sim.Duration(rng.Int63n(int64(horizon) / 2))
		dur := horizon/16 + sim.Duration(rng.Int63n(int64(horizon)/4))
		w := fault.Window{
			From:   shift.Add(from),
			To:     shift.Add(from + dur),
			Factor: 10 + 90*rng.Float64(),
		}
		switch rng.Intn(4) {
		case 0:
			w.Station = "ssd"
		case 1:
			w.Station = "hdd0"
		case 2:
			w.Station = "ssd"
			w.Jitter = rng.Float64() // brownout: jittery slowdown
		case 3:
			// Short freeze: the device answers nothing until To.
			w.Station = "ssd"
			w.Factor = 1
			w.Freeze = true
			w.To = shift.Add(from + horizon/32)
		}
		ws = append(ws, w)
	}
	return ws
}

// genSilentPlan builds a randomized-but-seeded silent-corruption
// schedule covering roughly the first half of the measured phase: one
// to three windows, each arming one lie mode (bit-flip-on-read,
// misdirected write, or lost write) on either the SSD or the HDD.
// Rates are modest — a soak should survive, loudly.
func genSilentPlan(seed uint64, shift sim.Time, horizon sim.Duration) (ssdW, hddW []fault.SilentWindow) {
	rng := sim.NewRand(seed ^ 0x51e7_c0de_b17f_11b5)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		from := sim.Duration(rng.Int63n(int64(horizon) / 2))
		dur := horizon/16 + sim.Duration(rng.Int63n(int64(horizon)/4))
		w := fault.SilentWindow{From: shift.Add(from), To: shift.Add(from + dur)}
		switch rng.Intn(3) {
		case 0:
			w.BitFlip = 0.01 + 0.04*rng.Float64()
		case 1:
			w.Misdirect = 0.005 + 0.015*rng.Float64()
		case 2:
			w.LostWrite = 0.005 + 0.015*rng.Float64()
		}
		if rng.Intn(2) == 0 {
			ssdW = append(ssdW, w)
		} else {
			hddW = append(hddW, w)
		}
	}
	return ssdW, hddW
}

// Run executes one chaos soak and verifies it: populate, fault
// schedule, closed-loop measured phase at QueueDepth, full-sweep
// verify, invariant check, silent-loss check. Any verification
// failure is returned as an error; a nil error means the stack
// survived this seed's schedule with all loss accounted for.
func Run(cfg Config) (*Result, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	if cfg.LBASpace <= 0 {
		cfg.LBASpace = 512
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.WriteFrac <= 0 {
		cfg.WriteFrac = 0.3
	}

	// The plan is installed (empty) at build time and filled in after
	// populate: the station shapers and fault devices hold the pointer,
	// so appending windows then is race-free and keeps window offsets
	// relative to the measured phase, not the build instant.
	plan := &fault.Schedule{Seed: cfg.Seed}
	// Silent-corruption plans use the same install-empty-then-populate
	// trick: the fault devices hold the pointers from build time, and
	// windows are appended once the measured-phase anchor is known.
	silentSSD := &fault.SilentPlan{}
	silentHDD := &fault.SilentPlan{}
	fssd := &fault.Config{Seed: cfg.Seed*0x9e37_79b9 + 1, Plan: plan, Silent: silentSSD}
	fhdd := &fault.Config{Seed: cfg.Seed*0x9e37_79b9 + 2, Plan: plan, Silent: silentHDD}
	bc := harness.BuildConfig{
		DataBlocks:     cfg.LBASpace,
		SSDCacheBlocks: cfg.LBASpace / 2,
		// A deliberately small data cache (1/8 of the set): reads must
		// reach the devices or the soak would only ever exercise RAM.
		DataRAMBytes: cfg.LBASpace / 8 * blockdev.BlockSize,
		FaultSSD:     fssd,
		FaultHDD:     fhdd,
		SlowDetector: !cfg.DisableHedge,
		Shards:       cfg.Shards,
	}
	if cfg.DisableHedge {
		bc.Tune = func(c *core.Config) { c.HedgeDeadline = -1 }
	}
	sys, err := harness.Build(harness.ICASH, bc)
	if err != nil {
		return nil, err
	}
	clock := sys.Clock
	arr := sys.Sharded

	// Populate: every block written once at version 1, fault-free (the
	// plan has no windows yet and the probabilistic rates are armed
	// only after the stats reset below — a populate-phase fault would
	// leave damaged state whose loss accounting ResetStats erases,
	// turning an accounted loss into an apparent silent one).
	oracle := make([]lbaState, cfg.LBASpace)
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < cfg.LBASpace; lba++ {
		fillBlock(buf, lba, 1)
		if _, err := sys.Dev.WriteBlock(lba, buf); err != nil {
			return nil, fmt.Errorf("chaos: populate lba %d: %w", lba, err)
		}
		oracle[lba] = lbaState{current: append([]byte(nil), buf...)}
		clock.Advance(10 * sim.Microsecond)
	}
	if err := sys.Flush(); err != nil {
		return nil, fmt.Errorf("chaos: populate flush: %w", err)
	}
	sys.ResetStats()

	// Arm the background scrubber for the measured phase (SetScrub
	// re-anchors the schedule at the next request).
	if cfg.ScrubInterval > 0 {
		arr.SetScrub(core.ScrubConfig{Interval: cfg.ScrubInterval})
	}

	// Arm the probabilistic fail-stop rates for the measured phase.
	if !cfg.NoFailStop {
		rates := fault.Rates{ReadMedia: 0.001, WriteMedia: 0.001, Transient: 0.003}
		sys.SSDFault.SetRates(rates)
		sys.HDDFault.SetRates(rates)
	}

	// Install the fail-slow schedule, anchored at the measured phase.
	start := clock.Now()
	if !cfg.NoFailSlow {
		horizon := sim.Duration(cfg.Ops) * 400 * sim.Microsecond
		if cfg.Plan != nil {
			plan.Seed = cfg.Plan.Seed
			for _, w := range cfg.Plan.Windows {
				w.From = start.Add(sim.Duration(w.From))
				w.To = start.Add(sim.Duration(w.To))
				plan.Windows = append(plan.Windows, w)
			}
		} else {
			plan.Windows = genPlan(cfg.Seed, start, horizon)
		}
		if ns := core.ShardNamespace(arr.NumShards(), 0); ns != "" {
			// Multi-shard station names live under per-shard namespaces
			// ("s0.ssd.ch0"); scope every window to the faulted shard so
			// the schedule keeps matching — and only that shard slows.
			for i := range plan.Windows {
				if plan.Windows[i].Station == "" {
					// "every station" scopes to "every station of the
					// faulted shard" ("s0" dotted-prefix-matches them all).
					plan.Windows[i].Station = strings.TrimSuffix(ns, ".")
				} else {
					plan.Windows[i].Station = ns + plan.Windows[i].Station
				}
			}
		}
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("chaos: plan: %w", err)
		}
	}

	// Install the silent-corruption schedule, anchored the same way.
	if cfg.SilentFaults {
		horizon := sim.Duration(cfg.Ops) * 400 * sim.Microsecond
		shiftWindows := func(p *fault.SilentPlan) []fault.SilentWindow {
			ws := make([]fault.SilentWindow, 0, len(p.Windows))
			for _, w := range p.Windows {
				w.From = start.Add(sim.Duration(w.From))
				w.To = start.Add(sim.Duration(w.To))
				ws = append(ws, w)
			}
			return ws
		}
		if cfg.SilentSSD != nil || cfg.SilentHDD != nil {
			if cfg.SilentSSD != nil {
				silentSSD.Windows = shiftWindows(cfg.SilentSSD)
			}
			if cfg.SilentHDD != nil {
				silentHDD.Windows = shiftWindows(cfg.SilentHDD)
			}
		} else {
			silentSSD.Windows, silentHDD.Windows = genSilentPlan(cfg.Seed, start, horizon)
		}
	}

	// Measured phase: closed-loop QueueDepth tokens on the event
	// engine, mirroring the harness's concurrent runner, with every
	// read checked against the oracle at execution time (the stack
	// runs in deterministic event order, so "current version" is
	// well-defined even with overlapping requests).
	res := &Result{Seed: cfg.Seed}

	// Detection-latency measurement: every checksum-mismatch detection
	// pops the matching device's outstanding-injection record; the gap
	// between injection and detection is the silent corruption's
	// host-visible exposure window.
	corruptionHook := func(dev string, devLBA int64) {
		// Multi-shard arrays report under the station namespace
		// ("s0.ssd"); only shard 0 carries fault wrappers, so strip the
		// prefix and attribute as usual. A detection on any other shard
		// matches no outstanding injection and records nothing — which
		// is itself the blast-radius claim.
		if i := strings.Index(dev, "."); i > 0 && dev[0] == 's' {
			dev = dev[i+1:]
		}
		var t sim.Time
		var ok bool
		switch dev {
		case "ssd":
			t, ok = sys.SSDFault.TakeCorruption(devLBA)
		case "hdd":
			t, ok = sys.HDDFault.TakeCorruption(devLBA)
		default:
			// A RAM- or host-level detection does not know which device
			// lied; match the outstanding injection on either.
			if t, ok = sys.SSDFault.TakeCorruption(devLBA); !ok {
				t, ok = sys.HDDFault.TakeCorruption(devLBA)
			}
		}
		if ok {
			res.DetectLat.Record(clock.Now().Sub(t))
		}
	}
	arr.SetCorruptionHook(corruptionHook)

	rng := sim.NewRand(cfg.Seed ^ 0x5eed_0fca_0c4a_0001)
	sch := event.NewScheduler(clock)
	maxDone := start
	issued := 0
	version := uint64(1) // global version counter: unique per write
	wrong := make(map[int64]bool)
	var runErr error

	verify := func(lba int64, b []byte) {
		st := &oracle[lba]
		if bytes.Equal(b, st.current) || (st.maybe != nil && bytes.Equal(b, st.maybe)) {
			return
		}
		res.WrongReads++
		wrong[lba] = true
	}

	var issue func()
	issue = func() {
		if runErr != nil || issued >= cfg.Ops {
			return
		}
		issued++
		res.Ops++
		lba := rng.Int63n(cfg.LBASpace)
		write := rng.Float64() < cfg.WriteFrac
		arrival := clock.Now()
		if write {
			version++
			fillBlock(buf, lba, version)
			sys.Tracer.Begin()
			d, werr := sys.Dev.WriteBlock(lba, buf)
			wait := event.Replay(sys.Tracer.Take(), arrival)
			sys.PollDetector()
			st := &oracle[lba]
			if werr != nil {
				// The write failed loudly; the block now legitimately
				// holds either the old or the new content.
				res.OpErrors++
				st.maybe = append([]byte(nil), buf...)
			} else {
				st.current = append([]byte(nil), buf...)
				st.maybe = nil
			}
			res.Writes++
			res.WriteHist.Record(d + wait)
			arrival = arrival.Add(d + wait)
		} else {
			sys.Tracer.Begin()
			d, rerr := sys.Dev.ReadBlock(lba, buf)
			wait := event.Replay(sys.Tracer.Take(), arrival)
			sys.PollDetector()
			if rerr != nil {
				res.OpErrors++
			} else {
				verify(lba, buf)
			}
			res.Reads++
			res.ReadHist.Record(d + wait)
			arrival = arrival.Add(d + wait)
		}
		if arrival > maxDone {
			maxDone = arrival
		}
		sch.At(arrival, issue)
	}
	for t := 0; t < cfg.QueueDepth; t++ {
		sch.After(0, issue)
	}
	sch.Run()
	if runErr != nil {
		return nil, runErr
	}
	if maxDone > clock.Now() {
		clock.AdvanceTo(maxDone)
	}
	if err := sys.Flush(); err != nil {
		// A failed final flush is a loud failure, not silent loss;
		// count it and let the invariant + loss checks judge the state.
		res.OpErrors++
	}

	// Full-sweep verify: every block read back once, serially.
	for lba := int64(0); lba < cfg.LBASpace; lba++ {
		d, rerr := sys.Dev.ReadBlock(lba, buf)
		if rerr != nil {
			res.OpErrors++
		} else {
			verify(lba, buf)
		}
		clock.Advance(d)
	}
	res.Elapsed = clock.Now().Sub(start)

	// Collect accounting.
	res.Stats = arr.Stats()
	res.Quarantined = arr.SSDQuarantined()
	res.SSDFault = sys.SSDFault.Stats
	res.HDDFault = sys.HDDFault.Stats
	if sys.Detector != nil {
		res.DetectorFlags, res.DetectorClears = sys.Detector.TotalEvents()
	}
	for _, s := range sys.Stations {
		st := s.Snapshot(res.Elapsed)
		res.SlowOps += st.SlowOps
		res.SlowTime += st.SlowTime
		res.Stations = append(res.Stations, st)
	}
	res.WrongLBAs = int64(len(wrong))
	res.AccountedLoss = res.Stats.ScrubDataLoss + res.Stats.DegradedDataLoss +
		res.Stats.DroppedLogRecs
	res.SilentUncaught = int64(sys.SSDFault.SilentOutstanding() + sys.HDDFault.SilentOutstanding())

	// Verdicts: structural invariants, then the silent-loss bound.
	// Every shard is checked — the unfaulted shards' invariants holding
	// is the blast-radius half of the claim.
	if err := arr.CheckInvariants(); err != nil {
		return res, fmt.Errorf("chaos: seed %d: controller invariants: %w", cfg.Seed, err)
	}
	for i, sdev := range sys.SSDs {
		if err := sdev.CheckInvariants(); err != nil {
			return res, fmt.Errorf("chaos: seed %d: shard %d ssd invariants: %w", cfg.Seed, i, err)
		}
	}
	if res.WrongLBAs > res.AccountedLoss {
		return res, fmt.Errorf("chaos: seed %d: SILENT DATA LOSS: %d wrong blocks but only %d accounted (scrub %d + degraded %d + dropped %d)",
			cfg.Seed, res.WrongLBAs, res.AccountedLoss,
			res.Stats.ScrubDataLoss, res.Stats.DegradedDataLoss, res.Stats.DroppedLogRecs)
	}
	return res, nil
}

// String summarizes a result in one line for tools. Runs that saw
// corruption detections append an integrity segment; healthy lines are
// unchanged.
func (r *Result) String() string {
	s := fmt.Sprintf("seed=%d ops=%d (r=%d w=%d) errs=%d wrong=%d/%d-lba accounted=%d slow=%d quarantine=%d hedges=%d read[%s]",
		r.Seed, r.Ops, r.Reads, r.Writes, r.OpErrors, r.WrongReads, r.WrongLBAs,
		r.AccountedLoss, r.SlowOps, r.Stats.QuarantineEvents, r.Stats.HedgedReads,
		r.ReadHist.String())
	if r.Stats.CorruptionsDetected > 0 {
		s += fmt.Sprintf(" corrupt[det=%d rep=%d unrep=%d uncaught=%d lat %s]",
			r.Stats.CorruptionsDetected, r.Stats.CorruptionsRepaired,
			r.Stats.UnrepairableBlocks, r.SilentUncaught, r.DetectLat.String())
	}
	return s
}
