package main

import (
	"wormnet"
)

// workload is one named input set the benchmark runs. Single-run workloads
// build one engine per episode from a public wormnet.Config; the table
// workload regenerates paper Table 1 through wormnet.RunPaperTable.
type workload struct {
	name string
	why  string
	// config returns the single-run configuration for a seed; nil for the
	// table workload.
	config func(seed uint64) wormnet.Config
	// observers wires the flight recorder, forensics correlator and
	// metrics sampler the way wormnet.Run wires them for -forensics plus
	// -series, and ends each episode by writing both files.
	observers bool
}

var workloads = []*workload{
	{
		name: "sat512",
		why:  "the paper's 8-ary 3-cube at its saturated rate: router kernel, NDM EndCycle and the 2-shard barrier",
		config: func(seed uint64) wormnet.Config {
			c := wormnet.DefaultConfig() // 8-ary 3-cube, 3 VCs, 16-flit uniform
			c.Load = 0.6
			c.Threshold = 8
			c.InjectionLimit = 6
			c.Recovery = wormnet.Progressive
			c.OracleEvery = 50
			c.Shards = 2
			c.Warmup, c.Measure = 1000, 2000
			c.Seed = seed
			return c
		},
	},
	{
		name: "forensic64",
		why:  "8-ary 2-cube, 1 VC, overloaded: constant recovery, oracle every cycle, trace, forensics and metrics observers",
		config: func(seed uint64) wormnet.Config {
			c := wormnet.DefaultConfig()
			c.K, c.N = 8, 2
			c.VirtualChannels = 1
			c.Load = 2.0
			c.InjectionLimit = -1
			c.Threshold = 8
			c.OracleEvery = 1
			c.Shards = 1
			c.Warmup, c.Measure = 500, 4000
			c.Seed = seed
			return c
		},
		observers: true,
	},
	{
		name: "table1",
		why:  "paper Table 1 (PDM, 160 cells) on an 8-ary 2-cube: harness scheduling, per-cell set-up and the saturation prologue",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
