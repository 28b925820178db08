// Command icash-serve runs the block-service front-end over the
// I-CASH array.
//
// In the default simulated mode it drives framed client sessions
// (generated from a workload profile) through the deterministic event
// engine and reports per-session and per-device accounting — the same
// machinery the served-vs-inproc experiments use:
//
//	icash-serve -bench SysBench
//	icash-serve -bench "TPC-C 5VMs" -vms -window 8
//
// With -listen it binds the very same session state machine to a real
// TCP socket for interactive use (the simulated array still serves the
// blocks; latencies are modeled, not waited out):
//
//	icash-serve -bench SysBench -listen 127.0.0.1:10809
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"icash/internal/harness"
	"icash/internal/server"
	"icash/internal/workload"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		bench  = flag.String("bench", "SysBench", "workload profile (see icash-bench -list)")
		scale  = flag.Float64("scale", 1.0/256, "workload scale")
		seed   = flag.Uint64("seed", 42, "workload seed")
		window = flag.Int("window", 8, "per-session in-flight window")
		vms    = flag.Bool("vms", false, "serve multi-VM profiles as one session per VM partition")
		ops    = flag.Int("ops", 0, "cap generated requests (0 = profile default)")
		listen = flag.String("listen", "", "serve the framed protocol on a real TCP address instead of simulating clients")
		shards = flag.Int("shards", 1, "partition the array into N LBA-range shards (1 = one shard, the whole disk); sessions on different shards serve in parallel")
	)
	flag.Parse()

	p, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "icash-serve: unknown benchmark %q\n", *bench)
		return 2
	}
	opts := workload.Options{Scale: *scale, Seed: *seed, MaxOps: *ops, StreamPerVM: *vms, QueueDepth: *window, Shards: *shards}

	if *listen != "" {
		if err := serveListen(*listen, p, opts, *window); err != nil {
			fmt.Fprintf(os.Stderr, "icash-serve: %v\n", err)
			return 1
		}
		return 0
	}

	cfg := server.DefaultSimConfig()
	cfg.Window = *window
	res, err := server.RunServed(p, opts, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icash-serve: %v\n", err)
		return 1
	}
	fmt.Print(res.Report())
	return 0
}

// serveListen builds and populates the array, then serves the framed
// protocol to real TCP clients until interrupted. Connections register
// with a server.Registry so shutdown can drain: when the listener dies,
// the aggregate accounting is reported and the array flushed before the
// error surfaces.
func serveListen(addr string, p workload.Profile, opts workload.Options, window int) error {
	sys, err := harness.Build(harness.ICASH, harness.ConfigForProfile(p, opts))
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(p, opts)
	sys.SetFill(gen.Fill)
	fmt.Fprintf(os.Stderr, "icash-serve: populating %s\n", gen.Summary())
	if err := harness.Populate(sys, gen); err != nil {
		return err
	}
	// Per-shard backends under the router: sessions whose partitions
	// land on different shards serve concurrently, each shard still
	// single-threaded behind its lockmap address. A one-shard array is
	// one address: every session funnels through it.
	var routed []server.Backend
	for _, sh := range sys.Sharded.Shards() {
		routed = append(routed, sh)
	}
	backend, err := server.NewShardRouter(routed)
	if err != nil {
		return err
	}
	registry := server.NewRegistry()
	imageBlocks := gen.ImageBlocks()
	vms := p.VMs

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "icash-serve: listening on %s (%d blocks, window %d)\n",
		ln.Addr(), backend.Blocks(), window)
	for {
		conn, err := ln.Accept()
		if err != nil {
			total, derr := registry.Drain(backend)
			if derr != nil {
				fmt.Fprintf(os.Stderr, "icash-serve: %v\n", derr)
			}
			fmt.Fprintf(os.Stderr, "icash-serve: served %d requests (%d reads, %d writes) before shutdown\n",
				total.Requests, total.Reads, total.Writes)
			return err
		}
		go handleConn(conn, backend, registry, window, imageBlocks, vms)
	}
}

// handleConn runs one session over a TCP connection.
func handleConn(conn net.Conn, backend server.Backend, registry *server.Registry, window int, imageBlocks int64, vms int) {
	defer conn.Close()
	partition := func(vm uint32) (int64, int64, bool) {
		if vm == server.AnyVM {
			return 0, backend.Blocks(), true
		}
		if vms > 1 && int64(vm) < int64(vms) {
			return int64(vm) * imageBlocks, imageBlocks, true
		}
		if vm == 0 {
			return 0, backend.Blocks(), true
		}
		return 0, 0, false
	}
	sess := server.NewSession(conn.RemoteAddr().String(), backend,
		server.SessionOptions{MaxWindow: window, Partition: partition})
	id, err := registry.Add(sess)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icash-serve: %v\n", err)
		return
	}
	defer registry.Remove(id)
	buf := make([]byte, 256<<10)
	for {
		n, rerr := conn.Read(buf)
		if n > 0 {
			out, err := sess.Feed(buf[:n])
			if len(out) > 0 {
				if _, werr := conn.Write(out); werr != nil {
					fmt.Fprintf(os.Stderr, "icash-serve: %s: write: %v\n", sess.Name(), werr)
					return
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "icash-serve: %s: %v\n", sess.Name(), err)
				return
			}
			if sess.State() == server.StateClosed {
				return
			}
		}
		if rerr != nil {
			if err := sess.CloseStream(); err != nil {
				fmt.Fprintf(os.Stderr, "icash-serve: %s: %v\n", sess.Name(), err)
			}
			return
		}
	}
}
