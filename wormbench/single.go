package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wormnet/internal/detect"
	"wormnet/internal/forensics"
	"wormnet/internal/metrics"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// episode is one complete single-run simulation: set-up, every cycle, and
// (for the observer workload) the report and series writes.
type episode struct {
	setup  time.Duration
	wall   time.Duration
	window time.Duration // the measured cycles' Step calls
	stepUs []float64     // per measured Step
	allocs uint64        // heap objects allocated over the episode
	res    *sim.Result
	digest string
	layers *layerTotals // traced episodes only
}

// instr is the per-engine instrumentation of a traced episode.
type instr struct {
	det         detAcc
	rt          *timedRouting
	tp          *timedProcess
	observe     callSlot
	oracleEvery int64
	wrapErr     error

	stepNs       int64
	cycles       int64
	oracleRuns   int64
	replays      int64
	replayNs     int64
	replayCandNs int64
	replaySetSum int64
}

// instrument replaces cfg's detector, routing and process factories with
// timing wrappers around what they would have built.
func instrument(cfg *sim.Config) *instr {
	nodes := 1
	for range cfg.N {
		nodes *= cfg.K
	}
	shards := max(cfg.Shards, 1)
	in := &instr{oracleEvery: cfg.OracleEvery}
	in.det.shardNs = make([]callSlot, shards)
	alg := cfg.Routing
	if alg == nil {
		alg = routing.TrueFullyAdaptive{}
	}
	in.rt = newTimedRouting(alg, nodes, shards)
	cfg.Routing = in.rt
	if inner := cfg.Detector; inner != nil {
		cfg.Detector = func(f *router.Fabric) detect.Detector {
			d := inner(f)
			w, err := wrapDetector(d, &in.det)
			if err != nil {
				in.wrapErr = err
				return d
			}
			return w
		}
	}
	in.tp = &timedProcess{slots: newShardSlots(nodes, shards)}
	if inner := cfg.Process; inner != nil {
		cfg.Process = func(t *topology.Torus) traffic.Process { return wrapProcess(inner(t), in.tp) }
	} else {
		// The engine's own default, built the same way sim.New builds it.
		pat, lengths, load := cfg.Pattern, cfg.Lengths, cfg.Load
		cfg.Process = func(t *topology.Torus) traffic.Process {
			return wrapProcess(traffic.NewGenerator(pat(t), lengths, load), in.tp)
		}
	}
	return in
}

// afterStep charges one Step to the accumulators and, on a sampled cycle
// where the engine ran its oracle, replays the oracle on the end-of-cycle
// state to time it, with routing counters paused.
func (in *instr) afterStep(eng *sim.Engine, d time.Duration) {
	in.stepNs += int64(d)
	in.cycles++
	now := eng.Now() - 1
	ran := in.det.markedThisCycle || (in.oracleEvery > 0 && now%in.oracleEvery == 0)
	in.det.endStep()
	if !ran {
		return
	}
	in.oracleRuns++
	if in.oracleRuns%oracleSampleEvery != 0 {
		return
	}
	o := eng.Oracle()
	in.rt.paused = true
	before := in.rt.pausedNs
	t0 := time.Now()
	o.Invalidate()
	set := o.Deadlocked()
	in.replayNs += int64(time.Since(t0))
	in.rt.paused = false
	in.replayCandNs += in.rt.pausedNs - before
	in.replays++
	in.replaySetSum += int64(len(set))
}

// observers are the trace, forensics and metrics rails as wormnet.Run
// wires them for ForensicsPath and SeriesPath.
type observers struct {
	rec *trace.Recorder
	mc  *metrics.Collector
	fc  *forensics.Correlator
}

func attachObservers(cfg *sim.Config, in *instr) *observers {
	o := &observers{
		rec: trace.NewRecorder(0),
		mc:  metrics.NewCollector(metrics.Options{}),
	}
	o.fc = forensics.New(forensics.Options{Metrics: o.mc})
	if in == nil {
		o.rec.SetObserver(o.fc.Observe)
	} else {
		s := &in.observe
		o.rec.SetObserver(func(ev trace.Event) {
			if s.hit() {
				t0 := time.Now()
				o.fc.Observe(ev)
				s.add(time.Since(t0))
				return
			}
			o.fc.Observe(ev)
		})
	}
	cfg.Trace, cfg.Metrics = o.rec, o.mc
	return o
}

// finish ends the run the way wormnet.Run does: close the open episode,
// write the incident report, then the series. Both files also feed h.
func (o *observers) finish(dir string, h hash.Hash) (finishNs, seriesNs int64, err error) {
	t0 := time.Now()
	o.fc.Finish()
	if err := writeFile(filepath.Join(dir, "incidents.jsonl"), h, o.fc.WriteReport); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err := writeFile(filepath.Join(dir, "series.jsonl"), h, o.mc.WriteSeriesJSONL); err != nil {
		return 0, 0, err
	}
	return int64(t1.Sub(t0)), int64(time.Since(t1)), nil
}

func writeFile(path string, h hash.Hash, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(io.MultiWriter(f, h))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// newEngine builds a workload's engine, instrumented when traced. It is
// everything a run does before its first cycle.
func newEngine(w *workload, seed uint64, traced bool) (*sim.Engine, *instr, *observers, error) {
	cfg, err := w.config(seed).SimConfig()
	if err != nil {
		return nil, nil, nil, err
	}
	var in *instr
	if traced {
		in = instrument(&cfg)
	}
	var ob *observers
	if w.observers {
		ob = attachObservers(&cfg, in)
	}
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if in != nil {
		if in.wrapErr != nil {
			return nil, nil, nil, in.wrapErr
		}
		// sim.New draws every node's first arrival gap; that is set-up,
		// not per-cycle traffic work.
		in.tp.slots.reset()
	}
	return eng, in, ob, nil
}

// measureSetup times one engine construction after a forced collection, so
// the garbage of earlier episodes is not charged to it.
func measureSetup(w *workload, seed uint64) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	eng, _, _, err := newEngine(w, seed, false)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	eng.StopWorkers()
	return d, nil
}

// runSingle runs one episode of a single-run workload.
func runSingle(w *workload, seed uint64, dir string, traced bool) (*episode, error) {
	runtime.GC()
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	allocs0 := heapObjects()
	start := time.Now()
	eng, in, ob, err := newEngine(w, seed, traced)
	if err != nil {
		return nil, err
	}
	defer eng.StopWorkers()
	ep := &episode{setup: time.Since(start)}
	cfg := w.config(seed)
	total := cfg.Warmup + cfg.Measure
	ep.stepUs = make([]float64, 0, cfg.Measure)
	for eng.Now() < total {
		measuring := eng.Now() >= cfg.Warmup
		t0 := time.Now()
		if err := eng.Step(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		if measuring {
			ep.window += d
			ep.stepUs = append(ep.stepUs, float64(d)/1e3)
		}
		if in != nil {
			in.afterStep(eng, d)
		}
	}
	res, err := eng.Run() // every cycle has run: returns the result
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return nil, err
	}
	var finishNs, seriesNs int64
	if ob != nil {
		if finishNs, seriesNs, err = ob.finish(dir, h); err != nil {
			return nil, err
		}
	}
	ep.wall = time.Since(start)
	ep.allocs = heapObjects() - allocs0
	ep.res = res
	ep.digest = hex.EncodeToString(h.Sum(nil))
	if in != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		ep.layers = in.totals(res)
		ep.layers.stepP99Us = quantile(ep.stepUs, 0.99)
		ep.layers.gcCycles = float64(ms1.NumGC - ms0.NumGC)
		ep.layers.gcPauseNs = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
		if ob != nil {
			ep.layers.traceEvents = float64(ob.rec.Total())
			ep.layers.finishNs = float64(finishNs)
			ep.layers.samples = float64(ob.mc.SampleCount())
			ep.layers.seriesNs = float64(seriesNs)
		}
	}
	return ep, nil
}
