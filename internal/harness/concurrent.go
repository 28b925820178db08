package harness

import (
	"fmt"

	"icash/internal/blockdev"
	"icash/internal/sim/event"
	"icash/internal/workload"
)

// Run drives gen against sys to completion and collects a Result. The
// generator must be freshly Reset; the system must be freshly built.
// Populate is normally called first.
//
// Every run goes through the discrete-event engine. The generator's
// options set the issue mode: QueueDepth outstanding requests per
// stream (0 counts as 1), and one stream per VM under StreamPerVM (one
// stream otherwise).
//
// The model is closed-loop trace-and-replay. Each stream owns qd issue
// tokens; a token issues a request, and when that request completes the
// token issues the next one — the scheduler interleaves all tokens of
// all streams by virtual completion time. Each block of a request walks
// the device stack synchronously (System.ServeBlock); the devices note
// every station visit (SSD channel, HDD actuator) with its service
// time, and the engine replays those visits onto the station timelines
// starting at the block's arrival instant to discover the queueing
// delays requests inflict on each other. A block's response time is its
// uncontended service time plus those queue waits; a request completes
// when its last block does.
//
// Background device work a request triggers (I-CASH log appends,
// destages) occupies its stations just like foreground work: later
// requests landing on the same actuator wait behind it. That is the
// backpressure a real drive exerts, and it applies at every queue
// depth: at QD=1 the next request waits for the actuator to finish the
// previous request's background writes, so no disk is busy for longer
// than the requests take. (The end-of-run Flush drains write-back state
// after the last request completes; its device time is in HDDBusy but
// not in Elapsed.)
//
// Determinism: everything runs on one goroutine, the scheduler breaks
// timestamp ties in schedule order, and stack state mutates in event
// order — same seed, same results, regardless of GOMAXPROCS.
func Run(sys *System, gen *workload.Generator) (*Result, error) {
	opts := gen.Options()
	qd := opts.QueueDepth
	if qd < 1 {
		qd = 1
	}
	streams := []*workload.Generator{gen}
	if opts.StreamPerVM {
		if vs := gen.VMStreams(); vs != nil {
			streams = vs
		}
	}
	p := gen.Profile()
	res := &Result{
		System: sys.Name(), Benchmark: p.Name,
		QueueDepth: qd, Streams: len(streams),
	}
	sys.SetFill(gen.Fill)

	// Guest page cache, one per stream: each stream is one guest VM with
	// its own RAM. The profile's PCFraction of VM RAM, scaled like the
	// data set (databases with direct I/O barely use it; file and mail
	// servers cache aggressively).
	frac := p.PCFraction
	if frac <= 0 {
		frac = 0.25
	}
	pcBlocks := int(frac * float64(p.VMRAMBytes/blockdev.BlockSize) *
		float64(gen.DataBlocks()) / float64(p.DataBlocks()))
	caches := make([]*pageCache, len(streams))
	for i := range caches {
		caches[i] = newPageCache(pcBlocks)
	}

	clock := sys.Clock
	sch := event.NewScheduler(clock)
	start := clock.Now()
	maxDone := start
	buf := blockdev.GetBlock()
	defer blockdev.PutBlock(buf)
	var runErr error

	// next[si] issues stream si's next request. The closures are built
	// once, so scheduling a token's next issue allocates nothing.
	next := make([]func(), len(streams))
	issue := func(si int) {
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
			if !req.Write && caches[si].lookup(lba) {
				res.ReadHist.Record(pageCacheHitLatency)
				arrival = arrival.Add(pageCacheHitLatency)
				continue
			}
			if req.Write {
				gen.WriteContent(lba, buf)
			}
			d, wait, err := sys.ServeBlock(req.Write, lba, buf, arrival)
			if err != nil {
				op := "read"
				if req.Write {
					op = "write"
				}
				runErr = fmt.Errorf("harness: %s %s lba %d: %w", sys.Name(), op, lba, err)
				return
			}
			caches[si].insert(lba)
			if req.Write {
				res.Writes++
				res.WriteHist.Record(d + wait)
			} else {
				res.Reads++
				res.ReadHist.Record(d + wait)
			}
			res.QueueWait.Record(wait)
			arrival = arrival.Add(d + wait)
		}
		if arrival > maxDone {
			maxDone = arrival
		}
		// The token's next request issues when this one completes.
		sch.At(arrival, next[si])
	}
	for si := range next {
		next[si] = func() { issue(si) }
	}

	// Prime the pump: qd tokens per stream, all issuing at the start
	// instant, interleaved stream-by-stream for fairness.
	for t := 0; t < qd; t++ {
		for si := range streams {
			sch.After(0, next[si])
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
