// Command wormbench is the repository's benchmark. It runs one named
// workload for a fixed host-time budget, checks every simulation's output,
// and prints its metrics as the last line of standard output:
//
//	go build -o wormbench . && ./wormbench --workload sat512 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it alternates untraced and traced runs of the same inputs
// and reports the per-layer metrics, timed from wrappers around each
// layer's public seams. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"wormnet/internal/sim"
)

// defaultSeed is the seed whose outputs golden.json records.
const defaultSeed = 1

// setupReps is how many extra engine constructions a single-run workload
// times before its episodes, so setup_s is a median of many.
const setupReps = 41

// minEpisodes is the fewest episodes a run makes, however short --seconds.
const minEpisodes = 3

// budgetLeft reports whether another repetition lasting about last still
// fits: it may overrun the budget by at most half a repetition.
func budgetLeft(start time.Time, budget, last time.Duration) bool {
	return time.Since(start)+last/2 < budget
}

//go:embed golden.json
var goldenJSON []byte

type metric struct {
	name  string
	value float64
	unit  string
}

// checker counts attempted and failed simulations and keeps the reasons.
type checker struct {
	attempted, failed int
	golden            map[string]string
}

func (c *checker) fail(n int, format string, args ...any) {
	c.failed += n
	fmt.Fprintf(os.Stderr, "wormbench: FAIL: "+format+"\n", args...)
}

// checkDigest compares a run's digest with the others of its run (want,
// when set) and, at the default seed, with the recorded one.
func (c *checker) checkDigest(name string, seed uint64, got, want string, n int) {
	switch {
	case want != "" && got != want:
		c.fail(n, "%s: digest %s differs from the run's first %s", name, got, want)
	case seed == defaultSeed && c.golden[name] != got:
		c.fail(n, "%s: digest %s differs from the recorded %s", name, got, c.golden[name])
	}
}

func main() {
	wname := flag.String("workload", "", "workload name: sat512, forensic64 or table1")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	w := workloadByName(*wname)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "wormbench: need --workload sat512|forensic64|table1, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(1)
	}
}

func run(w *workload, seed uint64, budget time.Duration, traced bool, workdir string) error {
	ck := &checker{}
	if err := json.Unmarshal(goldenJSON, &ck.golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "wormbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var ms []metric
	var digest string
	var runs int
	switch {
	case w.config == nil && !traced:
		ms, digest, runs, err = tableEndToEnd(seed, budget, dir, ck)
	case w.config == nil:
		ms, digest, runs, err = tableLayers(seed, budget, dir, ck)
	case !traced:
		ms, digest, runs, err = singleEndToEnd(w, seed, budget, dir, ck)
	default:
		ms, digest, runs, err = singleLayers(w, seed, budget, dir, ck)
	}
	if err != nil {
		return err
	}
	printProvenance(w, seed, budget, traced, runs, digest)
	printResult(ms, ck)
	return nil
}

// ---------------------------------------------------------------------------
// Single-run workloads

func singleEndToEnd(w *workload, seed uint64, budget time.Duration, dir string, ck *checker) ([]metric, string, int, error) {
	start := time.Now()
	var setups []float64
	for range setupReps {
		d, err := measureSetup(w, seed)
		if err != nil {
			return nil, "", 0, err
		}
		setups = append(setups, d.Seconds())
	}
	var eps []*episode
	var p50s, p95s []float64
	var last time.Duration
	for budgetLeft(start, budget, last) || (len(eps) < minEpisodes && ck.failed == 0) {
		ck.attempted++
		t0 := time.Now()
		ep, err := safeSingle(w, seed, dir, false)
		last = time.Since(t0)
		if err != nil {
			ck.fail(1, "%s episode %d: %v", w.name, len(eps), err)
			continue
		}
		eps = append(eps, ep)
		setups = append(setups, ep.setup.Seconds())
		p50s = append(p50s, quantile(ep.stepUs, 0.50))
		p95s = append(p95s, quantile(ep.stepUs, 0.95))
		// Peak RSS must not grow with the number of episodes that fit.
		ep.stepUs = nil
	}
	if len(eps) == 0 {
		return nil, "", 0, errors.New("every episode failed")
	}
	var walls, cps, fps, apc []float64
	for _, ep := range eps {
		ck.checkResult(w.name, ep.res)
		ck.checkDigest(w.name, seed, ep.digest, eps[0].digest, 1)
		walls = append(walls, ep.wall.Seconds())
		cps = append(cps, float64(ep.res.Cycles)/ep.window.Seconds())
		fps = append(fps, float64(ep.res.DeliveredFlits)/ep.window.Seconds())
		apc = append(apc, float64(ep.allocs)/float64(ep.res.TotalCycles))
	}
	res := eps[0].res
	return []metric{
		{"setup_s", median(setups), "s"},
		{"wall_s", median(walls), "s"},
		{"cycles_per_s", median(cps), "1/s"},
		{"flits_per_s", median(fps), "1/s"},
		{"step_us_p50", median(p50s), "us"},
		{"step_us_p95", median(p95s), "us"},
		{"mem_mb", peakRSSMB(), "MB"},
		{"allocs_per_cycle", median(apc), "1/cycle"},
		{"sim_throughput", res.Throughput(), "flits/node/cycle"},
		{"sim_latency_cycles", res.AvgLatency(), "cycles"},
	}, eps[0].digest, len(eps), nil
}

func singleLayers(w *workload, seed uint64, budget time.Duration, dir string, ck *checker) ([]metric, string, int, error) {
	start := time.Now()
	total := &layerTotals{}
	var plain, timed []float64
	var first string
	var last time.Duration
	for budgetLeft(start, budget, last) || (len(timed) < 1 && ck.failed == 0) {
		ck.attempted += 2
		t0 := time.Now()
		u, err := safeSingle(w, seed, dir, false)
		if err != nil {
			ck.fail(2, "%s untraced episode: %v", w.name, err)
			continue
		}
		t, err := safeSingle(w, seed, dir, true)
		last = time.Since(t0)
		if err != nil {
			ck.fail(1, "%s traced episode: %v", w.name, err)
			continue
		}
		if first == "" {
			first = u.digest
		}
		ck.checkResult(w.name, u.res)
		ck.checkDigest(w.name, seed, u.digest, first, 1)
		if t.digest != u.digest {
			ck.fail(1, "%s: traced digest %s differs from untraced %s", w.name, t.digest, u.digest)
		}
		plain = append(plain, u.window.Seconds()/float64(u.res.Cycles))
		timed = append(timed, t.window.Seconds()/float64(t.res.Cycles))
		total.add(t.layers)
	}
	if len(timed) == 0 {
		return nil, "", 0, errors.New("every episode failed")
	}
	overhead := 100 * (median(timed)/median(plain) - 1)
	return total.metrics(len(timed), overhead), first, len(timed), nil
}

// safeSingle runs an episode, turning a panic into an error.
func safeSingle(w *workload, seed uint64, dir string, traced bool) (ep *episode, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return runSingle(w, seed, dir, traced)
}

// ---------------------------------------------------------------------------
// Table 1

func tableEndToEnd(seed uint64, budget time.Duration, dir string, ck *checker) ([]metric, string, int, error) {
	start := time.Now()
	var trs []*tableRun
	var last time.Duration
	for budgetLeft(start, budget, last) || (len(trs) < 1 && ck.failed == 0) {
		ck.attempted += tableCells
		t0 := time.Now()
		tr, err := safeTable(func() (*tableRun, error) { return runTable(seed, dir) })
		last = time.Since(t0)
		if err != nil {
			ck.fail(tableCells, "table1 regeneration %d: %v", len(trs), err)
			continue
		}
		trs = append(trs, tr)
	}
	if len(trs) == 0 {
		return nil, "", 0, errors.New("every regeneration failed")
	}
	var setups, walls, cps, fps, steps, apc []float64
	for _, tr := range trs {
		ck.checkTable(tr, seed, trs[0].digest)
		var cycles, flits float64
		for _, c := range tr.cells {
			cycles += float64(c.TotalCycles)
			flits += float64(c.DeliveredFlits)
		}
		setups = append(setups, tr.firstCell.Seconds())
		walls = append(walls, tr.wall.Seconds())
		cps = append(cps, cycles/tr.wall.Seconds())
		fps = append(fps, flits/tr.wall.Seconds())
		steps = append(steps, tr.steadyStepUs())
		apc = append(apc, float64(tr.allocs)/cycles)
	}
	thr, lat := tableModel(trs[0].cells)
	step := median(steps)
	return []metric{
		{"setup_s", median(setups), "s"},
		{"wall_s", median(walls), "s"},
		{"cycles_per_s", median(cps), "1/s"},
		{"flits_per_s", median(fps), "1/s"},
		{"step_us_p50", step, "us"},
		{"step_us_p95", step, "us"},
		{"mem_mb", peakRSSMB(), "MB"},
		{"allocs_per_cycle", median(apc), "1/cycle"},
		{"sim_throughput", thr, "flits/node/cycle"},
		{"sim_latency_cycles", lat, "cycles"},
	}, trs[0].digest, len(trs), nil
}

func tableLayers(seed uint64, budget time.Duration, dir string, ck *checker) ([]metric, string, int, error) {
	start := time.Now()
	total := &layerTotals{}
	var plain, timed []float64
	var first string
	var last time.Duration
	for budgetLeft(start, budget, last) || (len(timed) < 1 && ck.failed == 0) {
		ck.attempted += 2 * tableCells
		t0 := time.Now()
		u, err := safeTable(func() (*tableRun, error) { return runTable(seed, dir) })
		if err != nil {
			ck.fail(2*tableCells, "table1 untraced regeneration: %v", err)
			continue
		}
		t, err := safeTable(func() (*tableRun, error) { return runTableTraced(seed) })
		last = time.Since(t0)
		if err != nil {
			ck.fail(tableCells, "table1 traced regeneration: %v", err)
			continue
		}
		if first == "" {
			first = u.digest
		}
		ck.checkTable(u, seed, first)
		ud, err := tableDigest(nil, u.cells)
		if err != nil {
			return nil, "", 0, err
		}
		if t.digest != ud {
			ck.fail(tableCells, "table1: traced cells digest %s differs from untraced %s", t.digest, ud)
		}
		plain = append(plain, u.wall.Seconds())
		timed = append(timed, t.wall.Seconds())
		t.layers.cellsPerSec = u.cellsPerSec()
		total.add(t.layers)
	}
	if len(timed) == 0 {
		return nil, "", 0, errors.New("every regeneration failed")
	}
	overhead := 100 * (median(timed)/median(plain) - 1)
	return total.metrics(len(timed), overhead), first, len(timed), nil
}

func safeTable(f func() (*tableRun, error)) (tr *tableRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return f()
}

// tableModel pools the cells' simulated throughput and latency.
func tableModel(cells []*sim.Result) (throughput, latency float64) {
	var flits, cycles, lat, delivered float64
	for _, c := range cells {
		flits += float64(c.DeliveredFlits)
		cycles += float64(c.Cycles) * float64(c.Nodes)
		lat += float64(c.LatencySum)
		delivered += float64(c.Delivered)
	}
	return flits / cycles, lat / delivered
}

// ---------------------------------------------------------------------------
// Output checks

// checkResult checks the invariants every seed's result must satisfy.
func (c *checker) checkResult(name string, r *sim.Result) {
	switch {
	case r.Marked != r.TrueMarked+r.FalseMarked:
		c.fail(1, "%s: Marked %d != TrueMarked %d + FalseMarked %d", name, r.Marked, r.TrueMarked, r.FalseMarked)
	case r.Delivered == 0 || r.Cycles == 0:
		c.fail(1, "%s: nothing delivered in %d measured cycles", name, r.Cycles)
	}
}

func (c *checker) checkTable(tr *tableRun, seed uint64, want string) {
	bad := 0
	for i, cell := range tr.cells {
		if cell.Marked != cell.TrueMarked+cell.FalseMarked || cell.Delivered == 0 {
			fmt.Fprintf(os.Stderr, "wormbench: table1 cell %d: bad counters %+v\n", i, cell.Counters)
			bad++
		}
	}
	if bad > 0 {
		c.fail(bad, "table1: %d cells failed the counter checks", bad)
	}
	c.checkDigest("table1", seed, tr.digest, want, tableCells)
}

// ---------------------------------------------------------------------------
// Output

func printResult(ms []metric, ck *checker) {
	out := map[string]any{
		"correct":   ck.failed == 0,
		"attempted": ck.attempted,
		"failed":    ck.failed,
	}
	vals := map[string]any{}
	for _, m := range ms {
		vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		fmt.Fprintf(os.Stderr, "%-38s %14.6g %s\n", m.name, m.value, m.unit)
	}
	out["metrics"] = vals
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// printProvenance prints, before the result line, what produced it.
func printProvenance(w *workload, seed uint64, budget time.Duration, traced bool, runs int, digest string) {
	p := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    budget.Seconds(),
		"trace":      traced,
		"runs":       runs,
		"digest":     digest,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
	if w.config != nil {
		c := w.config(seed)
		p["topology"] = fmt.Sprintf("%d-ary %d-cube", c.K, c.N)
		p["shards"] = max(c.Shards, 1)
		p["warmup"], p["measure"] = c.Warmup, c.Measure
	} else {
		p["topology"] = fmt.Sprintf("%d-ary %d-cube", tableK, tableN)
		p["shards"] = 1
		p["workers"] = tableWorkers
		p["warmup"], p["measure"] = tableWarmup, tableMeasure
	}
	if traced {
		p["sample_every"] = sampleEvery
		p["oracle_sample_every"] = oracleSampleEvery
	}
	p["vcs_revision"], p["vcs_modified"] = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["vcs_revision"] = s.Value
			case "vcs.modified":
				p["vcs_modified"] = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{"provenance": p})
	fmt.Println(string(b))
}

// ---------------------------------------------------------------------------
// Host measurements and statistics

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM), or the runtime's
// total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapObjects is the cumulative count of heap objects allocated.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
