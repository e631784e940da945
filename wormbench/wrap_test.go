package main

import (
	"testing"

	"wormnet"
	"wormnet/internal/detect"
	"wormnet/internal/router"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// smallWorkload is a saturated 8-ary 2-cube that marks, recovers and runs
// the oracle within a short run, so every wrapper is exercised.
func smallWorkload(shards int, observers bool) *workload {
	return &workload{
		name: "test",
		config: func(seed uint64) wormnet.Config {
			c := wormnet.DefaultConfig()
			c.K, c.N = 8, 2
			c.VirtualChannels = 1
			c.Load = 2.0
			c.InjectionLimit = -1
			c.Threshold = 8
			c.OracleEvery = 5
			c.Shards = shards
			c.Warmup, c.Measure = 200, 800
			c.Seed = seed
			return c
		},
		observers: observers,
	}
}

func TestWrapperForwardsExactInterfaces(t *testing.T) {
	fab, err := router.NewFabric(topology.New(4, 2), router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fab.SetPartition(topology.NewPartition(16, 2))
	for _, d := range []detect.Detector{detect.NewNDM(fab, 8), detect.NewPDM(fab, 8), detect.None{}} {
		w, err := wrapDetector(d, &detAcc{shardNs: make([]callSlot, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := capsOf(w), capsOf(d); got != want {
			t.Errorf("%s: wrapper interfaces %05b, detector %05b", d.Name(), got, want)
		}
	}
	if capsOf(detect.NewNDM(fab, 8))&capSharded == 0 {
		t.Error("NDM no longer implements detect.Sharded; the sat512 workload would not cross the shard barrier")
	}

	gen := traffic.NewGenerator(traffic.NewUniform(topology.New(4, 2)), traffic.Fixed(16), 0.5)
	if _, ok := wrapProcess(gen, &timedProcess{}).(traffic.Skipahead); !ok {
		t.Error("process wrapper dropped traffic.Skipahead")
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shards    int
		observers bool
	}{
		{"1shard", 1, false},
		{"2shards", 2, false},
		{"observers", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := smallWorkload(tc.shards, tc.observers)
			plain, err := runSingle(w, 3, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			timed, err := runSingle(w, 3, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != timed.digest {
				t.Fatalf("traced digest %s, untraced %s", timed.digest, plain.digest)
			}
			if plain.res.Marked == 0 {
				t.Fatal("workload marked nothing; detector wrappers untested")
			}
			lt := timed.layers
			if lt.candCalls == 0 || lt.routeFailed == 0 || lt.arrivals == 0 || lt.endCycleNs == 0 || lt.replays == 0 {
				t.Fatalf("a layer recorded nothing: %+v", lt)
			}
			if tc.observers && (lt.observeCalls == 0 || lt.traceEvents == 0) {
				t.Fatalf("observer layer recorded nothing: %+v", lt)
			}
		})
	}
}

// TestShardCountDoesNotChangeDigest pins the engine contract the sat512
// golden digest relies on: results are byte-identical across shard counts.
func TestShardCountDoesNotChangeDigest(t *testing.T) {
	one, err := runSingle(smallWorkload(1, false), 4, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	two, err := runSingle(smallWorkload(2, false), 4, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if one.digest != two.digest {
		t.Fatalf("1 shard %s, 2 shards %s", one.digest, two.digest)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	if v[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
}
