package main

import (
	"icash/internal/harness"
	"icash/internal/workload"
)

// spec is one benchmark workload: a paper profile, the scale and
// request count that size it, and the issue mode the harness runs it in.
// The seed is not part of the spec; it comes from the command line.
type spec struct {
	name    string
	profile workload.Profile
	scale   float64
	// qd and streamPerVM select the harness runner: qd <= 1 with one
	// stream is the serial runner, anything else the event engine.
	qd          int
	streamPerVM bool
	// shards is written into harness.BuildConfig.Shards; 1 builds the
	// classic single controller.
	shards int
}

// The three workloads; README.md says why each was chosen and how big
// its data set is against the SSD reference store and the RAM budgets.
var specs = []spec{
	{
		name:    "oltp-skewed",
		profile: workload.SysBench(),
		scale:   1.0 / 16,
		qd:      1,
		shards:  1,
	},
	{
		name:    "mail-uniform",
		profile: moreOps(workload.LoadSim(), 3),
		scale:   1.0 / 1024,
		qd:      1,
		shards:  1,
	},
	{
		name:        "vm-consolidated",
		profile:     moreOps(workload.TPCC5VM(), 3),
		scale:       1.0 / 64,
		qd:          8,
		streamPerVM: true,
		shards:      2,
	},
}

// moreOps multiplies p's request counts by n, keeping the read/write mix:
// the run gets n times longer over the same scaled data set, which
// averages out more of one seed's peculiarities.
func moreOps(p workload.Profile, n int64) workload.Profile {
	p.PaperReads *= n
	p.PaperWrites *= n
	return p
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// options returns the generator options for one seeded run.
func (s spec) options(seed uint64) workload.Options {
	return workload.Options{
		Scale:       s.scale,
		Seed:        seed,
		QueueDepth:  s.qd,
		StreamPerVM: s.streamPerVM,
	}
}

// buildConfig is the harness's own scaled configuration for the
// profile, with the shard count set on the config itself.
func (s spec) buildConfig(seed uint64) harness.BuildConfig {
	cfg := harness.ConfigForProfile(s.profile, s.options(seed))
	cfg.Shards = s.shards
	return cfg
}
