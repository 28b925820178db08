// OLTP comparison (paper §5.1 flavour): run the SysBench-style workload
// against I-CASH, a pure SSD, an SSD LRU cache and RAID0, and print the
// transaction-rate comparison the paper's Figure 6(a) reports.
//
//	go run ./examples/oltp
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"icash/internal/harness"
	"icash/internal/workload"
)

func main() {
	p := workload.SysBench()
	fmt.Printf("benchmark: %s — %s\n", p.Name, p.Description)
	fmt.Printf("data set %s, %.0f%% reads, SSD cache %s, delta RAM %s\n\n",
		workload.ByteSize(p.DataBytes), 100*p.ReadFraction(),
		workload.ByteSize(p.SSDCacheBytes), workload.ByteSize(p.DeltaRAMBytes))

	br, err := harness.RunBenchmark(p, workload.Options{Scale: 1.0 / 256, Seed: 42}, nil)
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\ttx/s\tavg read\tavg write\tSSD writes\tHDD busy")
	for _, k := range harness.AllKinds() {
		r := br.Results[k]
		fmt.Fprintf(w, "%s\t%.1f\t%.1fµs\t%.1fµs\t%d\t%v\n",
			k, r.TxnPerSec,
			r.ReadHist.Mean().Microseconds(), r.WriteHist.Mean().Microseconds(),
			r.SSDHostWrites, r.HDDBusy)
	}
	w.Flush()

	ic, fio := br.Results[harness.ICASH], br.Results[harness.FusionIO]
	fmt.Printf("\nI-CASH vs pure SSD: %.2fx the transactions at ~10%% of the SSD\n",
		ic.TxnPerSec/fio.TxnPerSec)
	fmt.Printf("I-CASH SSD writes: %.1f%% of pure SSD's (longer flash lifetime, §5.3)\n",
		100*float64(ic.SSDHostWrites)/float64(fio.SSDHostWrites))
	if ic.ICASHStats != nil {
		ref, assoc, indep := ic.KindCounts.Fractions()
		fmt.Printf("I-CASH block mix: %.0f%% reference / %.0f%% associate / %.0f%% independent (paper: 1/85/14)\n",
			100*ref, 100*assoc, 100*indep)
	}
}
