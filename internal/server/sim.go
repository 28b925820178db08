package server

import (
	"bytes"
	"fmt"
	"strings"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/sim"
	"icash/internal/sim/event"
	"icash/internal/workload"
)

// SimConfig parameterizes a served simulation run.
type SimConfig struct {
	// System selects the array under the front-end (the sweep and the
	// regression tests serve ICASH).
	System harness.Kind
	// Window is the per-session in-flight window. 0 falls back to the
	// workload's QueueDepth, then to 8. Clamped to [1, MaxWindow].
	Window int
	// LinkBytesPerSec models the wire: frame bytes occupy the session's
	// uplink station for len/rate. 0 picks 1 GiB/s.
	LinkBytesPerSec int64
	// FrameOverhead is the fixed per-frame cost (framing, interrupt,
	// protocol handling). 0 picks 5us.
	FrameOverhead sim.Duration
}

// DefaultSimConfig returns the served-run defaults: the I-CASH array
// behind a 1 GiB/s link with 5us per-frame overhead.
func DefaultSimConfig() SimConfig {
	return SimConfig{System: harness.ICASH, LinkBytesPerSec: 1 << 30, FrameOverhead: 5 * sim.Microsecond}
}

// SessionReport is one session's accounting in a ServeResult.
type SessionReport struct {
	Name string
	// VM is the pinned VM index, -1 for a whole-disk session.
	VM    int
	Stats SessionStats
	// Station is the session's uplink-station accounting: utilization,
	// queue waits, and backpressure stalls of the connection itself.
	Station metrics.StationStats
	// ReadHist and WriteHist are end-to-end request latencies as the
	// client saw them: issue to reply fully received.
	ReadHist  metrics.Histogram
	WriteHist metrics.Histogram
}

// ServeResult is one served simulation run.
type ServeResult struct {
	Profile  workload.Profile
	System   harness.Kind
	Window   int
	Sessions []SessionReport

	// Ops counts client requests; Reads/Writes split them.
	Ops    int64
	Reads  int64
	Writes int64

	// ReadHist/WriteHist merge every session's end-to-end latencies.
	ReadHist  metrics.Histogram
	WriteHist metrics.Histogram

	Elapsed   sim.Duration
	ReqPerSec float64

	// Stations is the device-station accounting under the served load.
	Stations []metrics.StationStats
	// Stats is the controller's accounting (I-CASH runs only).
	Stats    *core.Stats
	Degraded bool

	// Sys keeps the system handle for inspection tools.
	Sys *harness.System
}

// Report renders the run for icash-serve and icash-inspect.
func (r *ServeResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served %s on %s: %d sessions, window %d\n",
		r.Profile.Name, r.System, len(r.Sessions), r.Window)
	fmt.Fprintf(&b, "elapsed %v — %.1f req/s (%d ops: %d reads, %d writes)\n",
		r.Elapsed, r.ReqPerSec, r.Ops, r.Reads, r.Writes)
	if r.ReadHist.Count() > 0 {
		fmt.Fprintf(&b, "read  e2e %s\n", r.ReadHist.String())
	}
	if r.WriteHist.Count() > 0 {
		fmt.Fprintf(&b, "write e2e %s\n", r.WriteHist.String())
	}
	for _, s := range r.Sessions {
		fmt.Fprintf(&b, "session %s (vm %d): %d reqs (%d r / %d w / %d f), %s in / %s out, svc %v\n",
			s.Name, s.VM, s.Stats.Requests, s.Stats.Reads, s.Stats.Writes, s.Stats.Flushes,
			workload.ByteSize(s.Stats.BytesIn), workload.ByteSize(s.Stats.BytesOut), s.Stats.Service)
		b.WriteString(metrics.FormatStations([]metrics.StationStats{s.Station}, "  ", false))
		if s.ReadHist.Count() > 0 {
			fmt.Fprintf(&b, "  read  e2e %s\n", s.ReadHist.String())
		}
		if s.WriteHist.Count() > 0 {
			fmt.Fprintf(&b, "  write e2e %s\n", s.WriteHist.String())
		}
	}
	b.WriteString("device stations:\n")
	b.WriteString(metrics.FormatStations(r.Stations, "  ", true))
	return b.String()
}

// simBackend adapts a harness system to the session Backend, replaying
// every device walk onto the station timelines from the current frame
// arrival — the same trace-and-replay contract as the in-process
// concurrent runner. The arrival cursor is simulated bookkeeping, not
// the clock: only the event scheduler moves time.
type simBackend struct {
	sys     *harness.System
	arrival sim.Time
}

func (b *simBackend) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	b.sys.Tracer.Begin()
	d, err := b.sys.Dev.ReadBlock(lba, buf)
	if err != nil {
		return d, err
	}
	wait := event.Replay(b.sys.Tracer.Take(), b.arrival)
	b.sys.PollDetector()
	b.arrival = b.arrival.Add(d + wait)
	return d + wait, nil
}

func (b *simBackend) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	b.sys.Tracer.Begin()
	d, err := b.sys.Dev.WriteBlock(lba, buf)
	if err != nil {
		return d, err
	}
	wait := event.Replay(b.sys.Tracer.Take(), b.arrival)
	b.sys.PollDetector()
	b.arrival = b.arrival.Add(d + wait)
	return d + wait, nil
}

func (b *simBackend) Flush() error  { return b.sys.Flush() }
func (b *simBackend) Blocks() int64 { return b.sys.Dev.Blocks() }

// servedSession is one simulated client+session pair.
type servedSession struct {
	name    string
	vm      int
	gen     *workload.Generator
	sess    *Session
	tracker *ReplyTracker
	station *event.Server

	tokens int
	nextID uint64
	closed bool

	readLat   metrics.Histogram
	writeLat  metrics.Histogram
	pending   map[uint64][]byte // read id -> expected payload (content oracle)
	issueTime map[uint64]sim.Time
}

// RunServed drives profile p through framed sessions on the
// discrete-event engine: one session per workload stream (per VM under
// StreamPerVM), each with its own uplink station and a closed-loop
// window of in-flight requests, all composed under the system's single
// clock. Every reply is verified — CRC, id matching via the client
// tracker, and read payloads against the workload's content oracle —
// and every session ends with a graceful OpClose that drains the
// journal. The run is bit-identical for a given (profile, opts, cfg)
// regardless of the process's worker count: the engine is
// single-goroutine and owns all time.
func RunServed(p workload.Profile, opts workload.Options, cfg SimConfig) (*ServeResult, error) {
	if cfg.LinkBytesPerSec <= 0 {
		cfg.LinkBytesPerSec = 1 << 30
	}
	if cfg.FrameOverhead <= 0 {
		cfg.FrameOverhead = 5 * sim.Microsecond
	}
	window := cfg.Window
	if window <= 0 {
		window = opts.QueueDepth
	}
	if window <= 0 {
		window = 8
	}
	if window > MaxWindow {
		window = MaxWindow
	}

	sys, err := harness.Build(cfg.System, harness.ConfigForProfile(p, opts))
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(p, opts)
	sys.SetFill(gen.Fill)
	if err := harness.Populate(sys, gen); err != nil {
		return nil, err
	}

	streams := []*workload.Generator{gen}
	if opts.StreamPerVM {
		if vs := gen.VMStreams(); vs != nil {
			streams = vs
		}
	}
	imageBlocks := gen.ImageBlocks()

	backend := &simBackend{sys: sys}
	xfer := func(n int) sim.Duration {
		return cfg.FrameOverhead + sim.Duration(int64(n)*int64(sim.Second)/cfg.LinkBytesPerSec)
	}

	res := &ServeResult{Profile: p, System: cfg.System, Window: window, Sys: sys}
	clock := sys.Clock
	sch := event.NewScheduler(clock)
	start := clock.Now()

	sessions := make([]*servedSession, len(streams))
	for i, sgen := range streams {
		ss := &servedSession{
			name:      fmt.Sprintf("sess%d", i),
			vm:        sgen.VM(),
			gen:       sgen,
			tokens:    window,
			pending:   make(map[uint64][]byte),
			issueTime: make(map[uint64]sim.Time),
		}
		opt := SessionOptions{MaxWindow: window}
		if ss.vm >= 0 {
			first := int64(ss.vm) * imageBlocks
			vm := uint32(ss.vm)
			opt.Partition = func(got uint32) (int64, int64, bool) {
				if got != vm {
					return 0, 0, false
				}
				return first, imageBlocks, true
			}
		}
		ss.sess = NewSession(ss.name, backend, opt)
		ss.tracker = NewReplyTracker(window)
		ss.station = event.NewServer(ss.name, window)
		sessions[i] = ss

		// Handshake up front, outside the measured timeline: the
		// session must be serving before its tokens start.
		helloVM := uint32(AnyVM)
		if ss.vm >= 0 {
			helloVM = uint32(ss.vm)
		}
		out, err := ss.sess.Feed(AppendHello(nil, Hello{Version: ProtocolVersion, WantWindow: uint16(window), VM: helloVM}))
		if err != nil {
			return nil, fmt.Errorf("server: %s handshake: %w", ss.name, err)
		}
		var hd Decoder
		hd.Feed(out)
		hr, err := hd.NextHelloReply()
		if err != nil {
			return nil, fmt.Errorf("server: %s handshake reply: %w", ss.name, err)
		}
		if hr.Status != HandshakeOK {
			return nil, fmt.Errorf("server: %s handshake refused with status %d", ss.name, hr.Status)
		}
	}

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	// send frames one client request through the wire: uplink station,
	// delivery, execution against the array, reply verification, and
	// the next issue for the token that carried it.
	var send func(ss *servedSession, frame []byte, onDone func(rdone sim.Time))
	var issue func(ss *servedSession)

	send = func(ss *servedSession, frame []byte, onDone func(rdone sim.Time)) {
		arrival := clock.Now().Add(p.AppCPU)
		sys.CPU.ChargeApp(p.AppCPU)
		_, done := ss.station.Admit(arrival, xfer(len(frame)))
		sch.At(done, func() {
			if runErr != nil {
				return
			}
			// The frame has fully arrived; the array sees its blocks
			// from this instant.
			backend.arrival = done
			out, err := ss.sess.Feed(frame)
			if err != nil {
				fail(fmt.Errorf("server: %s: %w", ss.name, err))
				return
			}
			complete := backend.arrival
			replies, err := ss.tracker.Feed(out)
			if err != nil {
				fail(fmt.Errorf("server: %s: %w", ss.name, err))
				return
			}
			rdone := complete.Add(xfer(len(out)))
			for i := range replies {
				if err := ss.verify(&replies[i], rdone); err != nil {
					fail(err)
					return
				}
			}
			if rdone < clock.Now() {
				rdone = clock.Now()
			}
			sch.At(rdone, func() { onDone(rdone) })
		})
	}

	issue = func(ss *servedSession) {
		if runErr != nil {
			return
		}
		req, ok := ss.gen.Next()
		if !ok {
			ss.tokens--
			if ss.tokens > 0 || ss.closed {
				return
			}
			// Last token out: graceful shutdown. The close reply
			// acknowledges the journal drain.
			ss.closed = true
			id := ss.nextID
			ss.nextID++
			if err := ss.tracker.Issue(id, OpClose); err != nil {
				fail(fmt.Errorf("server: %s: %w", ss.name, err))
				return
			}
			frame := AppendRequest(nil, Request{Op: OpClose, ID: id})
			send(ss, frame, func(sim.Time) {})
			return
		}
		res.Ops++
		id := ss.nextID
		ss.nextID++
		op := OpRead
		if req.Write {
			op = OpWrite
		}
		if err := ss.tracker.Issue(id, op); err != nil {
			fail(fmt.Errorf("server: %s: %w", ss.name, err))
			return
		}
		ss.issueTime[id] = clock.Now()
		wire := Request{Op: op, ID: id, LBA: uint64(req.LBA), Blocks: uint32(req.Blocks)}
		if req.Write {
			res.Writes++
			// The content model advances at issue time, in stream
			// order — the same discipline as the in-process harness,
			// which is what makes the final data set byte-identical.
			payload := make([]byte, req.Blocks*blockdev.BlockSize)
			for i := 0; i < req.Blocks; i++ {
				ss.gen.WriteContent(req.LBA+int64(i), payload[i*blockdev.BlockSize:(i+1)*blockdev.BlockSize])
			}
			wire.Payload = payload
		} else {
			res.Reads++
			// Snapshot the expected content now: the session's uplink
			// is FIFO, so every write issued before this read lands
			// before it, and none issued after can overtake it.
			expect := make([]byte, req.Blocks*blockdev.BlockSize)
			for i := 0; i < req.Blocks; i++ {
				ss.gen.CurrentContent(req.LBA+int64(i), expect[i*blockdev.BlockSize:(i+1)*blockdev.BlockSize])
			}
			ss.pending[id] = expect
		}
		frame := AppendRequest(nil, wire)
		send(ss, frame, func(sim.Time) { issue(ss) })
	}

	for t := 0; t < window; t++ {
		for _, ss := range sessions {
			ss := ss
			sch.After(0, func() { issue(ss) })
		}
	}
	sch.Run()
	if runErr != nil {
		return nil, runErr
	}

	res.Elapsed = clock.Now().Sub(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.ReqPerSec = float64(res.Ops) / secs
	}
	for _, ss := range sessions {
		if ss.sess.State() != StateClosed {
			return nil, fmt.Errorf("server: %s ended in state %s, want closed", ss.name, ss.sess.State())
		}
		if ss.tracker.Outstanding() != 0 {
			return nil, fmt.Errorf("server: %s ended with %d unanswered requests", ss.name, ss.tracker.Outstanding())
		}
		rep := SessionReport{
			Name:      ss.name,
			VM:        ss.vm,
			Stats:     ss.sess.Stats(),
			Station:   ss.station.Snapshot(res.Elapsed),
			ReadHist:  ss.readLat,
			WriteHist: ss.writeLat,
		}
		res.Sessions = append(res.Sessions, rep)
		res.ReadHist.Merge(&ss.readLat)
		res.WriteHist.Merge(&ss.writeLat)
	}
	for _, st := range sys.Stations {
		res.Stations = append(res.Stations, st.Snapshot(res.Elapsed))
	}
	if sys.Sharded != nil {
		st := sys.Sharded.Stats()
		res.Stats = &st
		res.Degraded = sys.Sharded.Degraded()
	}
	return res, nil
}

// verify checks one completion: status, and for reads the payload
// against the workload's content oracle.
func (ss *servedSession) verify(rep *Reply, rdone sim.Time) error {
	issued, ok := ss.issueTime[rep.ID]
	if ok {
		delete(ss.issueTime, rep.ID)
		lat := rdone.Sub(issued)
		if rep.Op == OpRead {
			ss.readLat.Record(lat)
		} else if rep.Op == OpWrite {
			ss.writeLat.Record(lat)
		}
	}
	if rep.Status != StatusOK {
		return fmt.Errorf("server: %s: request %d (op %d) failed with status %d", ss.name, rep.ID, rep.Op, rep.Status)
	}
	if rep.Op == OpRead {
		expect := ss.pending[rep.ID]
		delete(ss.pending, rep.ID)
		if expect == nil {
			return fmt.Errorf("server: %s: read reply %d has no pending oracle entry", ss.name, rep.ID)
		}
		if !bytes.Equal(rep.Payload, expect) {
			return fmt.Errorf("server: %s: read %d returned content diverging from the oracle", ss.name, rep.ID)
		}
	}
	return nil
}
