package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"wormnet"
	"wormnet/internal/detect"
	"wormnet/internal/exp"
	"wormnet/internal/harness"
	"wormnet/internal/router"
	"wormnet/internal/sim"
)

// Table 1 settings: the paper's PDM table on an 8-ary 2-cube, rates
// relative to the measured saturation point.
const (
	tableK, tableN          = 8, 2
	tableWarmup             = 500
	tableMeasure            = 2000
	tableWorkers            = 2
	tableID                 = 1
	tableCells              = 160 // 10 thresholds x 4 rates x 4 sizes
	tableCellCycles float64 = tableWarmup + tableMeasure
)

// tableRun is one regeneration of Table 1.
type tableRun struct {
	firstCell time.Duration // start to the first finished cell
	wall      time.Duration
	stamps    []time.Time // Progress calls
	allocs    uint64
	cells     []*sim.Result // in point order
	digest    string
	layers    *layerTotals // traced regenerations only
}

// tableDigest hashes the rendered table (when there is one) and every
// cell's full result in point order.
func tableDigest(rendered []byte, cells []*sim.Result) (string, error) {
	h := sha256.New()
	h.Write(rendered)
	enc := json.NewEncoder(h)
	for _, c := range cells {
		if err := enc.Encode(c); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runTable regenerates Table 1 through the public API. The checkpoint
// journal is the one seam that returns every cell's full sim.Result.
func runTable(seed uint64, dir string) (*tableRun, error) {
	journal := filepath.Join(dir, "table1.journal.jsonl")
	tr := &tableRun{}
	runtime.GC()
	allocs0 := heapObjects()
	start := time.Now()
	res, err := wormnet.RunPaperTable(tableID, wormnet.TableOptions{
		K: tableK, N: tableN,
		Warmup: tableWarmup, Measure: tableMeasure,
		Seed:          seed,
		RelativeRates: true,
		Workers:       tableWorkers,
		Journal:       journal,
		Progress:      func(int, int) { tr.stamps = append(tr.stamps, time.Now()) },
	})
	if err != nil {
		return nil, err
	}
	tr.wall = time.Since(start)
	tr.allocs = heapObjects() - allocs0
	tr.firstCell = tr.stamps[0].Sub(start)
	var rendered bytes.Buffer
	if err := res.RenderJSON(&rendered); err != nil {
		return nil, err
	}
	if tr.cells, err = readJournal(journal, len(tr.stamps)); err != nil {
		return nil, err
	}
	tr.digest, err = tableDigest(rendered.Bytes(), tr.cells)
	return tr, err
}

// readJournal returns the journaled results in point order.
func readJournal(path string, points int) ([]*sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cells := make([]*sim.Result, points)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	sc.Scan() // header line
	for sc.Scan() {
		var rec struct {
			Point  int         `json:"point"`
			Result *sim.Result `json:"result"`
			Error  string      `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		if rec.Error != "" || rec.Result == nil || rec.Point < 0 || rec.Point >= points {
			return nil, fmt.Errorf("journal %s: bad record for point %d: %s", path, rec.Point, rec.Error)
		}
		cells[rec.Point] = rec.Result
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, c := range cells {
		if c == nil {
			return nil, fmt.Errorf("journal %s: point %d missing", path, i)
		}
	}
	return cells, nil
}

// runTableTraced regenerates Table 1's cells with every cell's engine
// instrumented. RunPaperTable offers no factory seam, so this rebuilds the
// same sweep from exp's public pieces: the saturation estimate, the rate
// scaling, the cell grid and its legacy seed derivation. The digest check
// against the untraced run proves the rebuild runs the same simulations.
func runTableTraced(seed uint64) (*tableRun, error) {
	tbl, err := exp.PaperTable(tableID)
	if err != nil {
		return nil, err
	}
	opt := exp.DefaultOptions()
	opt.K, opt.N = tableK, tableN
	opt.Warmup, opt.Measure = tableWarmup, tableMeasure
	opt.Seed = seed
	opt.RelativeRates = true
	opt.Workers = tableWorkers

	tr := &tableRun{layers: &layerTotals{}}
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	sat, err := exp.EstimateSaturation(tbl.Pattern, exp.SizeS.Dist, opt)
	if err != nil {
		return nil, err
	}
	tr.layers.estimateSaturationNs = float64(time.Since(start))
	base := tbl.Rates[len(tbl.Rates)-2]
	var points []harness.Point
	for _, th := range tbl.Thresholds {
		for _, r := range tbl.Rates {
			rate := r / base * sat
			for _, size := range tbl.Sizes {
				cfg := sim.DefaultConfig()
				cfg.K, cfg.N = opt.K, opt.N
				cfg.Pattern = tbl.Pattern
				cfg.Lengths = size.Dist
				cfg.Load = rate
				cfg.InjectionLimit = opt.InjectionLimit
				cfg.Warmup, cfg.Measure = opt.Warmup, opt.Measure
				cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, th) }
				points = append(points, harness.Point{
					Key:    fmt.Sprintf("th=%d/rate=%.6g/%s", th, rate, size.Key),
					Config: cfg,
				})
			}
		}
	}
	var mu sync.Mutex
	var steps []float64
	sweep, err := harness.Run(points, harness.Options{
		Workers:  opt.Workers,
		BaseSeed: seed,
		SeedFunc: func(point, rep int) uint64 {
			return seed + uint64(point)*0x9e3779b9 + uint64(rep)*0x2545f491
		},
		OnPointDone: func(int, int) { tr.stamps = append(tr.stamps, time.Now()) },
		// Each cell's instrumentation is its own; only the merge is shared
		// between the two worker goroutines.
		Run: func(_ string, cfg sim.Config) (*sim.Result, error) {
			in := instrument(&cfg)
			res, cellSteps, err := stepAll(cfg, in)
			if err != nil {
				return nil, err
			}
			lt := in.totals(res)
			mu.Lock()
			tr.layers.add(lt)
			steps = append(steps, cellSteps...)
			mu.Unlock()
			return res, nil
		},
	})
	if err != nil {
		return nil, err
	}
	tr.wall = time.Since(start)
	tr.firstCell = tr.stamps[0].Sub(start)
	for _, p := range sweep {
		if !p.OK() {
			return nil, fmt.Errorf("cell %s: %s", p.Key, p.Err())
		}
		tr.cells = append(tr.cells, p.Runs[0])
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	tr.layers.stepP99Us = quantile(steps, 0.99)
	tr.layers.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	tr.layers.gcPauseNs = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	tr.digest, err = tableDigest(nil, tr.cells)
	return tr, err
}

// stepAll runs an instrumented engine to completion, timing every Step;
// it returns the Step times in microseconds.
func stepAll(cfg sim.Config, in *instr) (*sim.Result, []float64, error) {
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if in.wrapErr != nil {
		return nil, nil, in.wrapErr
	}
	in.tp.slots.reset()
	defer eng.StopWorkers()
	total := cfg.Warmup + cfg.Measure
	steps := make([]float64, 0, total)
	for eng.Now() < total {
		t0 := time.Now()
		if err := eng.Step(); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		steps = append(steps, float64(d)/1e3)
		in.afterStep(eng, d)
	}
	res, err := eng.Run()
	return res, steps, err
}

// steadyStepUs is the host time per simulated cell cycle after the first
// cell finished: workers x elapsed / cycles simulated in that span.
func (tr *tableRun) steadyStepUs() float64 {
	n := len(tr.stamps)
	if n < 2 {
		return 0
	}
	span := tr.stamps[n-1].Sub(tr.stamps[0])
	return float64(tableWorkers) * float64(span) / 1e3 / (float64(n-1) * tableCellCycles)
}

// cellsPerSec is the harness's completion rate after the first cell.
func (tr *tableRun) cellsPerSec() float64 {
	n := len(tr.stamps)
	if n < 2 {
		return 0
	}
	return float64(n-1) / tr.stamps[n-1].Sub(tr.stamps[0]).Seconds()
}
