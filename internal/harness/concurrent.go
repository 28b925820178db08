package harness

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/sim/event"
	"icash/internal/workload"
)

// runConcurrent drives one or more request streams against sys with qd
// outstanding requests per stream, on the discrete-event engine.
//
// The model is closed-loop trace-and-replay. Each stream owns qd issue
// tokens; a token issues a request, and when that request completes the
// token issues the next one — the scheduler interleaves all tokens of
// all streams by virtual completion time. Each block of a request walks
// the device stack synchronously (the stack is ordinary sequential
// code); the devices note every station visit (SSD channel, HDD
// actuator) with its service time, and the engine replays those visits
// onto the station timelines starting at the block's arrival instant to
// discover the queueing delays concurrent requests inflict on each
// other. A block's response time is its uncontended service time plus
// those queue waits; a request completes when its last block does.
//
// Background device work a request triggers (I-CASH log appends,
// destages) occupies its stations just like foreground work: later
// requests landing on the same actuator wait behind it. That is the
// backpressure a real drive exerts, and it is the deliberate design
// choice here — background traffic is invisible at QD=1 (the serial
// path never begins a trace) but contends for arms and channels the
// moment requests overlap.
//
// Determinism: everything runs on one goroutine, the scheduler breaks
// timestamp ties in schedule order, and stack state mutates in event
// order — same seed, same results, regardless of GOMAXPROCS.
func runConcurrent(sys *System, parent *workload.Generator, streams []*workload.Generator, qd int) (*Result, error) {
	p := parent.Profile()
	res := &Result{
		System: sys.Name(), Benchmark: p.Name,
		QueueDepth: qd, Streams: len(streams),
	}
	sys.SetFill(parent.Fill)

	// Guest page cache, one per stream: each stream is one guest VM with
	// its own RAM (the serial path models the same budget as a single
	// shared cache because its VMs take turns).
	frac := p.PCFraction
	if frac <= 0 {
		frac = 0.25
	}
	pcBlocks := int(frac * float64(p.VMRAMBytes/blockdev.BlockSize) *
		float64(parent.DataBlocks()) / float64(p.DataBlocks()))
	caches := make([]*pageCache, len(streams))
	for i := range caches {
		caches[i] = newPageCache(pcBlocks)
	}

	clock := sys.Clock
	sch := event.NewScheduler(clock)
	start := clock.Now()
	maxDone := start
	buf := make([]byte, blockdev.BlockSize)
	var runErr error

	var issue func(si int)
	issue = func(si int) {
		if runErr != nil {
			return
		}
		gen := streams[si]
		req, ok := gen.Next()
		if !ok {
			return // this token retires; the stream is drained
		}
		res.Ops++
		sys.CPU.ChargeApp(p.AppCPU)
		arrival := clock.Now().Add(p.AppCPU)
		for i := 0; i < req.Blocks; i++ {
			lba := req.LBA + int64(i)
			if lba >= sys.Dev.Blocks() {
				break
			}
			if req.Write {
				gen.WriteContent(lba, buf)
				sys.Tracer.Begin()
				d, err := sys.Dev.WriteBlock(lba, buf)
				if err != nil {
					runErr = fmt.Errorf("harness: %s write lba %d: %w", sys.Name(), lba, err)
					return
				}
				wait := event.Replay(sys.Tracer.Take(), arrival)
				sys.PollDetector()
				caches[si].insert(lba)
				res.Writes++
				res.WriteHist.Record(d + wait)
				res.QueueWait.Record(wait)
				arrival = arrival.Add(d + wait)
			} else {
				if caches[si].lookup(lba) {
					res.ReadHist.Record(pageCacheHitLatency)
					arrival = arrival.Add(pageCacheHitLatency)
					continue
				}
				sys.Tracer.Begin()
				d, err := sys.Dev.ReadBlock(lba, buf)
				if err != nil {
					runErr = fmt.Errorf("harness: %s read lba %d: %w", sys.Name(), lba, err)
					return
				}
				wait := event.Replay(sys.Tracer.Take(), arrival)
				sys.PollDetector()
				caches[si].insert(lba)
				res.Reads++
				res.ReadHist.Record(d + wait)
				res.QueueWait.Record(wait)
				arrival = arrival.Add(d + wait)
			}
		}
		if arrival > maxDone {
			maxDone = arrival
		}
		// The token's next request issues when this one completes.
		sch.At(arrival, func() { issue(si) })
	}

	// Prime the pump: qd tokens per stream, all issuing at the start
	// instant, interleaved stream-by-stream for fairness.
	for t := 0; t < qd; t++ {
		for si := range streams {
			si := si
			sch.After(0, func() { issue(si) })
		}
	}
	sch.Run()
	if runErr != nil {
		return nil, runErr
	}
	// The last events are issues; the run ends when the last request
	// completes.
	if maxDone > clock.Now() {
		clock.AdvanceTo(maxDone)
	}
	if err := sys.Flush(); err != nil {
		return nil, fmt.Errorf("harness: %s flush: %w", sys.Name(), err)
	}

	var hits, total float64
	for _, pc := range caches {
		hits += float64(pc.hits)
		total += float64(pc.hits + pc.misses)
	}
	if total > 0 {
		res.PageCacheHitRatio = hits / total
	}
	finalize(sys, res, p, start)
	for _, st := range sys.Stations {
		res.Stations = append(res.Stations, st.Snapshot(res.Elapsed))
	}
	return res, nil
}
