// Command perfbench is the repository's benchmark. It runs the I-CASH
// system alone (the four baselines are comparators, not the product)
// through the harness's public functions on one of three workloads,
// checks the outcome, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 they are the per-layer ones, taken from traced
// iterations, and the run also reports the tracing overhead against
// untraced iterations of the same run. README.md explains the
// workloads, the metrics and the trace file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"icash/internal/blockdev"
	"icash/internal/core"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 42, "workload seed")
		seconds = flag.Int("seconds", 30, "how long to keep repeating the measured iteration")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced iterations")
	)
	flag.Parse()
	s, ok := specByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --trace {0,1} --seconds >= 1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	b := &bench{spec: s, seed: *seed}
	b.printSizes()
	if err := b.measure(time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
		os.Exit(1)
	}
	ms := b.endToEnd()
	if *trace == 1 {
		b.printMetrics("end to end (untraced iterations of this run)", ms)
		ms = b.perLayer()
		b.printMetrics("per layer (traced iterations)", ms)
		if path, err := b.traced[0].tr.write(traceDir()); err != nil {
			fmt.Printf("CHECK FAILED: writing the trace: %v\n", err)
			b.failed++
		} else {
			fmt.Printf("trace: %s\n", path)
		}
	} else {
		b.printMetrics("end to end", ms)
	}
	correct := b.report()
	out := result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// traceDir is where traced runs write their spans: the build directory
// the wrapper script uses, inside the checkout.
func traceDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "traces")
}

// bench holds one invocation's iterations and standalone passes.
type bench struct {
	spec spec
	seed uint64

	plain, traced []*iteration
	limit         int64 // device blocks, past which the runners drop blocks
	gen           *genPass
	delta         *deltaPass
	deltaErr      error

	attempted, failed int64
}

// minPlain and minTraced are the fewest iterations of each kind a run
// makes, however short --seconds is: enough for a median once the
// first untraced iteration is set aside as warm-up.
const (
	minPlain  = 4
	minTraced = 3
	maxPairs  = 2048
)

// measure repeats the iteration until the time is up. A traced run
// alternates untraced and traced iterations, so the overhead compares
// neighbours under the same machine conditions.
func (b *bench) measure(budget time.Duration, traced bool) error {
	start := time.Now()
	var ora *oracle
	oracleFor := func(limit int64) *oracle {
		if ora == nil {
			b.limit = limit
			ora, b.gen = runGenPass(b.spec, b.seed, limit, maxPairs)
		}
		return ora
	}
	for i := 0; ; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer(fmt.Sprintf("%s-seed%d-iter%d", b.spec.name, b.seed, i))
		}
		first := (tr == nil && len(b.plain) == 0) || (tr != nil && len(b.traced) == 0)
		it, err := iterate(b.spec, b.seed, tr, first, oracleFor)
		if err != nil {
			return err
		}
		b.attempted += it.res.Ops + it.readbackRead
		b.failed += it.failed
		if tr != nil {
			b.traced = append(b.traced, it)
		} else {
			b.plain = append(b.plain, it)
		}
		enough := len(b.plain) >= minPlain
		if traced {
			enough = len(b.plain) >= minTraced && len(b.traced) >= minTraced
		}
		// Stop once another iteration of the average length would end
		// past the budget.
		elapsed := time.Since(start)
		if enough && elapsed+elapsed/time.Duration(i+1) > budget {
			break
		}
	}
	if traced {
		// The standalone layer passes run once more, traced, into the
		// first traced iteration's spans: the trace file holds that
		// iteration, read-back included.
		tr := b.traced[0].tr
		sp := tr.begin("workload.gen", 0)
		_, b.gen = runGenPass(b.spec, b.seed, b.limit, maxPairs)
		tr.end(sp)
		threshold := core.NewDefaultConfig(1, 1, 1, 1).DeltaThreshold
		b.delta, b.deltaErr = runDeltaPass(b.gen.pairs, threshold, tr)
		b.attempted += int64(len(b.gen.pairs))
		if b.deltaErr != nil {
			b.failed++
			b.delta = &deltaPass{}
		}
	}
	return nil
}

// report prints each iteration's times, every check failure and the
// digest, and says whether the run is correct: no failed check, and one
// digest for every iteration, traced or not.
func (b *bench) report() bool {
	all := append(append([]*iteration(nil), b.plain...), b.traced...)
	for _, it := range all {
		fmt.Printf("iteration: traced=%v setup %.3fs (cpu %.3fs) run %.3fs (cpu %.3fs)\n",
			it.tr != nil, it.setup.Seconds(), it.setupCPU.Seconds(), it.run.Seconds(), it.runCPU.Seconds())
		for _, p := range it.problems {
			fmt.Printf("CHECK FAILED: %s\n", p)
		}
		if it.digest != all[0].digest {
			fmt.Printf("CHECK FAILED: digest %s differs from %s\n", it.digest, all[0].digest)
			b.failed++
		}
	}
	if b.deltaErr != nil {
		fmt.Printf("CHECK FAILED: %v\n", b.deltaErr)
	}
	fmt.Printf("sim digest: %s (%d untraced, %d traced iterations)\n",
		all[0].digest, len(b.plain), len(b.traced))
	fmt.Printf("checks: %d attempted, %d failed\n", b.attempted, b.failed)
	return b.failed == 0
}

// printSizes states the data set against the caches it is measured
// against: the SSD reference store and the controller's data RAM.
func (b *bench) printSizes() {
	cfg := b.spec.buildConfig(b.seed)
	data := float64(cfg.DataBlocks * blockdev.BlockSize)
	fmt.Printf("%s: %s, %d shard(s), QD %d; data set %.1f MiB = %.1fx SSD reference store (%d blocks), %.1fx data RAM (%.2f MiB)\n",
		b.spec.name, b.spec.profile.Name, b.spec.shards, b.spec.qd, data/(1<<20),
		data/float64(cfg.SSDCacheBlocks*blockdev.BlockSize), cfg.SSDCacheBlocks,
		data/float64(cfg.DataRAMBytes), float64(cfg.DataRAMBytes)/(1<<20))
}

func (b *bench) printMetrics(title string, ms []metric) {
	fmt.Printf("%s — %s, seed %d\n", b.spec.name, title, b.seed)
	for _, m := range ms {
		fmt.Printf("  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// medianOf is the median of f over its iterations.
func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
