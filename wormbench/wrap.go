package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"wormnet/internal/detect"
	"wormnet/internal/rng"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// sampleEvery is the timing sample rate for the high-frequency layer calls
// (routing candidates, detector route failures, traffic arrivals, forensics
// observes): every call is counted, one call in sampleEvery is timed, and
// the timed mean stands for all of them. The rate is printed with every
// traced result.
const sampleEvery = 8

// oracleSampleEvery is the share of oracle-running cycles after which the
// traced run replays the oracle to time it: one in oracleSampleEvery.
const oracleSampleEvery = 4

// clockNs is the part of one time.Now/time.Since pair that falls inside
// the interval it measures, calibrated at start-up by timing empty
// intervals. Per-call means subtract it: for calls of ~100 ns it is a
// large share of the reading.
var clockNs = calibrateClock()

func calibrateClock() float64 {
	const n = 1 << 16
	best := math.Inf(1)
	for range 5 {
		var sum time.Duration
		for range n {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		best = min(best, float64(sum)/n)
	}
	return best
}

// callSlot accumulates one layer's calls on one goroutine. Slots are padded
// to a cache line so concurrent shards never share one.
type callSlot struct {
	calls   int64 // every call
	sampled int64 // timed calls
	ns      int64 // time spent in the timed calls
	n       int64 // a layer-specific count (messages generated)
	_       [32]byte
}

// hit counts a call and reports whether this call is the sampled one.
func (s *callSlot) hit() bool {
	s.calls++
	return s.calls%sampleEvery == 0
}

func (s *callSlot) add(d time.Duration) {
	s.sampled++
	s.ns += int64(d)
}

// estNs is the estimated time spent in all calls: the sampled mean times
// the call count.
func (s *callSlot) estNs() float64 { return s.meanNs() * float64(s.calls) }

// meanNs is the mean time of one call, less the clock reads' own share
// of each timed interval.
func (s *callSlot) meanNs() float64 {
	if s.sampled == 0 {
		return 0
	}
	return max(float64(s.ns)/float64(s.sampled)-clockNs, 0)
}

// shardSlots is one callSlot per shard, indexed through the engine's node
// partition, so a call made on shard s's goroutine only touches slot s.
type shardSlots struct {
	part  topology.Partition
	slots []callSlot
}

func newShardSlots(nodes, shards int) shardSlots {
	return shardSlots{part: topology.NewPartition(nodes, shards), slots: make([]callSlot, shards)}
}

func (s *shardSlots) of(node int) *callSlot { return &s.slots[s.part.Of(node)] }

// total merges the slots into one; maxEstNs is the slowest shard's
// estimated time, the part of a parallel phase on the cycle's critical path.
func (s *shardSlots) total() callSlot {
	var t callSlot
	for i := range s.slots {
		t.calls += s.slots[i].calls
		t.sampled += s.slots[i].sampled
		t.ns += s.slots[i].ns
		t.n += s.slots[i].n
	}
	return t
}

func (s *shardSlots) maxEstNs() float64 {
	m := 0.0
	for i := range s.slots {
		m = max(m, s.slots[i].estNs())
	}
	return m
}

func (s *shardSlots) reset() {
	for i := range s.slots {
		s.slots[i] = callSlot{}
	}
}

// ---------------------------------------------------------------------------
// Detector

// detAcc is what the detector wrapper records. routeFailed, vcFreed and
// the EndCycle fields are touched only on the engine's serial
// spine; shardNs[s] only by the goroutine running shard s's EndCycleShard.
type detAcc struct {
	routeFailed callSlot
	vcFreed     int64
	marks       int64 // RouteFailed calls that returned true
	flitHops    int64 // len(txLinks) summed over EndCycle calls

	endCycleNs int64 // EndCycle, or EndCycleTx + the slowest EndCycleShard
	txNs       int64 // this cycle's EndCycleTx
	split      bool  // this cycle took the sharded EndCycle path
	shardNs    []callSlot

	markedThisCycle bool
}

// endStep folds the cycle's sharded EndCycle timings into endCycleNs and
// clears the per-cycle state. The engine's barrier orders every
// EndCycleShard before Step returns, so the caller reads the shard slots
// without racing them.
func (a *detAcc) endStep() {
	if a.split {
		slowest := int64(0)
		for i := range a.shardNs {
			slowest = max(slowest, a.shardNs[i].ns)
			a.shardNs[i].ns = 0
		}
		a.endCycleNs += a.txNs + slowest
		a.split = false
	}
	a.markedThisCycle = false
}

// detCaps is the set of optional detector interfaces the engine asserts in
// sim.New, as a bit mask.
type detCaps uint8

const (
	capTraceable detCaps = 1 << iota
	capDTOccupier
	capFlagObserver
	capProbeObserver
	capSharded
)

func capsOf(d detect.Detector) detCaps {
	var c detCaps
	if _, ok := d.(detect.Traceable); ok {
		c |= capTraceable
	}
	if _, ok := d.(detect.DTOccupier); ok {
		c |= capDTOccupier
	}
	if _, ok := d.(detect.FlagObserver); ok {
		c |= capFlagObserver
	}
	if _, ok := d.(detect.ProbeObserver); ok {
		c |= capProbeObserver
	}
	if _, ok := d.(detect.Sharded); ok {
		c |= capSharded
	}
	return c
}

// timedDetector times the calls into a detector. It implements only the
// mandatory interface; the flagged and sharded variants below add the
// optional ones, and wrapDetector picks the variant whose interface set
// equals the wrapped detector's, so the engine takes the same code path
// with and without the wrapper.
type timedDetector struct {
	d   detect.Detector
	acc *detAcc
}

func (t *timedDetector) Name() string { return t.d.Name() }

func (t *timedDetector) RouteFailed(m *router.Message, in router.LinkID, outs []router.LinkID, first bool, now int64) bool {
	var marked bool
	if s := &t.acc.routeFailed; s.hit() {
		t0 := time.Now()
		marked = t.d.RouteFailed(m, in, outs, first, now)
		s.add(time.Since(t0))
	} else {
		marked = t.d.RouteFailed(m, in, outs, first, now)
	}
	if marked {
		t.acc.marks++
		t.acc.markedThisCycle = true
	}
	return marked
}

func (t *timedDetector) RouteSucceeded(m *router.Message, in router.LinkID) {
	t.d.RouteSucceeded(m, in)
}

func (t *timedDetector) VCFreed(l router.LinkID) {
	t.acc.vcFreed++
	t.d.VCFreed(l)
}

func (t *timedDetector) EndCycle(now int64, txLinks []router.LinkID, transmitted []bool) {
	t.acc.flitHops += int64(len(txLinks))
	t0 := time.Now()
	t.d.EndCycle(now, txLinks, transmitted)
	t.acc.endCycleNs += int64(time.Since(t0))
}

// timedFlagged adds the flag-observing interfaces NDM and PDM implement.
type timedFlagged struct{ timedDetector }

func (t *timedFlagged) SetTracer(r *trace.Recorder) { t.d.(detect.Traceable).SetTracer(r) }
func (t *timedFlagged) DTCount() int                { return t.d.(detect.DTOccupier).DTCount() }
func (t *timedFlagged) FlagCounts() (int, int, int) { return t.d.(detect.FlagObserver).FlagCounts() }

// timedSharded adds the per-shard EndCycle split NDM implements.
type timedSharded struct{ timedFlagged }

func (t *timedSharded) EndCycleTx(now int64, txLinks []router.LinkID) {
	t.acc.flitHops += int64(len(txLinks))
	t0 := time.Now()
	t.d.(detect.Sharded).EndCycleTx(now, txLinks)
	t.acc.txNs = int64(time.Since(t0))
	t.acc.split = true
}

func (t *timedSharded) EndCycleShard(shard int, now int64, transmitted []bool) {
	t0 := time.Now()
	t.d.(detect.Sharded).EndCycleShard(shard, now, transmitted)
	t.acc.shardNs[shard].ns = int64(time.Since(t0))
}

// wrapDetector returns a timing wrapper that implements exactly the
// optional interfaces d implements, or an error when no wrapper variant
// matches d's interface set.
func wrapDetector(d detect.Detector, acc *detAcc) (detect.Detector, error) {
	base := timedDetector{d: d, acc: acc}
	var w detect.Detector
	switch capsOf(d) {
	case 0:
		w = &base
	case capTraceable | capDTOccupier | capFlagObserver:
		w = &timedFlagged{base}
	case capTraceable | capDTOccupier | capFlagObserver | capSharded:
		w = &timedSharded{timedFlagged{base}}
	default:
		return nil, fmt.Errorf("no timing wrapper forwards exactly the interfaces of %T", d)
	}
	return w, nil
}

// ---------------------------------------------------------------------------
// Routing

// atomicSlot is a callSlot whose calls may come from any shard goroutine.
type atomicSlot struct {
	calls, sampled, ns atomic.Int64
	_                  [40]byte
}

// timedRouting times routing.Algorithm.Candidates. The engine stripes the
// candidate phase across shards by pending-list index, not by node, so any
// shard goroutine may route any node: the counters are atomic, spread over
// one slot per shard (by the node's shard) to halve contention. While
// paused (the benchmark's own oracle replay, on the serial spine) calls are
// not counted as routing work; their time goes to pausedNs so the replay
// can subtract it.
type timedRouting struct {
	routing.Algorithm
	part     topology.Partition
	slots    []atomicSlot
	paused   bool
	pausedNs int64
}

func newTimedRouting(alg routing.Algorithm, nodes, shards int) *timedRouting {
	return &timedRouting{Algorithm: alg, part: topology.NewPartition(nodes, shards), slots: make([]atomicSlot, shards)}
}

func (r *timedRouting) Candidates(f *router.Fabric, m *router.Message, node int, buf []router.VCID) []router.VCID {
	if r.paused {
		t0 := time.Now()
		out := r.Algorithm.Candidates(f, m, node, buf)
		r.pausedNs += int64(time.Since(t0))
		return out
	}
	s := &r.slots[r.part.Of(node)]
	if s.calls.Add(1)%sampleEvery == 0 {
		t0 := time.Now()
		out := r.Algorithm.Candidates(f, m, node, buf)
		s.ns.Add(int64(time.Since(t0)))
		s.sampled.Add(1)
		return out
	}
	return r.Algorithm.Candidates(f, m, node, buf)
}

// total merges the slots. The engine balances the striped phase across
// shards, so the critical path is the total over the shard count.
func (r *timedRouting) total() callSlot {
	var t callSlot
	for i := range r.slots {
		t.calls += r.slots[i].calls.Load()
		t.sampled += r.slots[i].sampled.Load()
		t.ns += r.slots[i].ns.Load()
	}
	return t
}

// ---------------------------------------------------------------------------
// Traffic

// timedProcess times an injection process per shard. Each shard's slot
// counts and times the generation calls and counts arrivals in n.
type timedProcess struct {
	p     traffic.Process
	slots shardSlots
}

func (t *timedProcess) Name() string { return t.p.Name() }

func (t *timedProcess) Next(src int, r *rng.Source) (int, int, bool) {
	var dst, length int
	var ok bool
	if s := t.slots.of(src); s.hit() {
		t0 := time.Now()
		dst, length, ok = t.p.Next(src, r)
		s.add(time.Since(t0))
	} else {
		dst, length, ok = t.p.Next(src, r)
	}
	if ok {
		t.slots.of(src).n++
	}
	return dst, length, ok
}

// timedSkipahead adds the skip-ahead capability the Bernoulli generator
// implements; without it the engine would fall back to per-cycle trials.
type timedSkipahead struct{ *timedProcess }

func (t *timedSkipahead) NextGap(src int, r *rng.Source) (int, bool) {
	if s := t.slots.of(src); s.hit() {
		t0 := time.Now()
		gap, ok := t.p.(traffic.Skipahead).NextGap(src, r)
		s.add(time.Since(t0))
		return gap, ok
	}
	return t.p.(traffic.Skipahead).NextGap(src, r)
}

func (t *timedSkipahead) Arrive(src int, r *rng.Source) (int, int) {
	s := t.slots.of(src)
	s.n++
	if s.hit() {
		t0 := time.Now()
		dst, length := t.p.(traffic.Skipahead).Arrive(src, r)
		s.add(time.Since(t0))
		return dst, length
	}
	return t.p.(traffic.Skipahead).Arrive(src, r)
}

// wrapProcess returns a timing wrapper that keeps p's skip-ahead capability.
func wrapProcess(p traffic.Process, t *timedProcess) traffic.Process {
	t.p = p
	if _, ok := p.(traffic.Skipahead); ok {
		return &timedSkipahead{t}
	}
	return t
}
