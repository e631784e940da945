package main

import (
	"wormnet/internal/sim"
)

// layerTotals sums a traced run's per-layer counts and times (in ns) over
// its episodes or table cells. Times of parallel shard phases are the
// slowest shard's, the part on the cycle's critical path.
type layerTotals struct {
	cycles, stepNs float64
	stepP99Us      float64 // per run: p99 of its traced Step times

	endCycleNs                     float64
	flitHops                       float64
	routeFailed, routeFailedMeanNs float64 // mean weighted by routeFailed
	vcFreed                        float64
	marks, trueMarks, falsePct     float64

	candCalls, candMeanNs, candCritNs float64 // mean weighted by candCalls
	arrivals, trafficCalls            float64
	trafficMeanNs, trafficCritNs      float64 // mean weighted by trafficCalls

	oracleRuns, replays, replayNs, replayCandNs, replaySetSum float64

	measured, absorbed, reinjected float64

	traceEvents                       float64
	observeCalls, observeMeanNs       float64 // mean weighted by observeCalls
	observeEstNs, finishNs, seriesNs  float64
	samples                           float64
	gcCycles, gcPauseNs               float64
	estimateSaturationNs, cellsPerSec float64
}

// totals converts one engine's instrumentation and result into totals.
func (in *instr) totals(res *sim.Result) *layerTotals {
	cand := in.rt.total()
	gen := in.tp.slots.total()
	return &layerTotals{
		cycles:            float64(in.cycles),
		stepNs:            float64(in.stepNs),
		endCycleNs:        float64(in.det.endCycleNs),
		flitHops:          float64(in.det.flitHops),
		routeFailed:       float64(in.det.routeFailed.calls),
		routeFailedMeanNs: in.det.routeFailed.meanNs(),
		vcFreed:           float64(in.det.vcFreed),
		marks:             float64(res.Marked),
		trueMarks:         float64(res.TrueMarked),
		falsePct:          res.PctFalseMarked(),
		candCalls:         float64(cand.calls),
		candMeanNs:        cand.meanNs(),
		candCritNs:        cand.estNs() / float64(len(in.rt.slots)),
		arrivals:          float64(gen.n),
		trafficCalls:      float64(gen.calls),
		trafficMeanNs:     gen.meanNs(),
		trafficCritNs:     in.tp.slots.maxEstNs(),
		oracleRuns:        float64(in.oracleRuns),
		replays:           float64(in.replays),
		replayNs:          float64(in.replayNs),
		replayCandNs:      float64(in.replayCandNs),
		replaySetSum:      float64(in.replaySetSum),
		measured:          float64(res.Cycles),
		absorbed:          float64(res.Absorbed),
		reinjected:        float64(res.Reinjected),
		observeCalls:      float64(in.observe.calls),
		observeMeanNs:     in.observe.meanNs(),
		observeEstNs:      in.observe.estNs(),
	}
}

// add folds o into t.
func (t *layerTotals) add(o *layerTotals) {
	wmean := func(m *float64, n float64, om, on float64) {
		if n+on > 0 {
			*m = (*m*n + om*on) / (n + on)
		}
	}
	wmean(&t.routeFailedMeanNs, t.routeFailed, o.routeFailedMeanNs, o.routeFailed)
	wmean(&t.candMeanNs, t.candCalls, o.candMeanNs, o.candCalls)
	wmean(&t.trafficMeanNs, t.trafficCalls, o.trafficMeanNs, o.trafficCalls)
	wmean(&t.observeMeanNs, t.observeCalls, o.observeMeanNs, o.observeCalls)
	t.cycles += o.cycles
	t.stepNs += o.stepNs
	t.stepP99Us += o.stepP99Us
	t.endCycleNs += o.endCycleNs
	t.flitHops += o.flitHops
	t.routeFailed += o.routeFailed
	t.vcFreed += o.vcFreed
	t.marks += o.marks
	t.trueMarks += o.trueMarks
	t.falsePct += o.falsePct
	t.candCalls += o.candCalls
	t.candCritNs += o.candCritNs
	t.arrivals += o.arrivals
	t.trafficCalls += o.trafficCalls
	t.trafficCritNs += o.trafficCritNs
	t.oracleRuns += o.oracleRuns
	t.replays += o.replays
	t.replayNs += o.replayNs
	t.replayCandNs += o.replayCandNs
	t.replaySetSum += o.replaySetSum
	t.measured += o.measured
	t.absorbed += o.absorbed
	t.reinjected += o.reinjected
	t.traceEvents += o.traceEvents
	t.observeCalls += o.observeCalls
	t.observeEstNs += o.observeEstNs
	t.finishNs += o.finishNs
	t.seriesNs += o.seriesNs
	t.samples += o.samples
	t.gcCycles += o.gcCycles
	t.gcPauseNs += o.gcPauseNs
	t.estimateSaturationNs += o.estimateSaturationNs
	t.cellsPerSec += o.cellsPerSec
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives the per-layer metrics. runs is the number of traced
// episodes or table regenerations the totals cover; the step p99,
// falsePct, finish, series, samples and gc figures are reported per run.
func (t *layerTotals) metrics(runs int, overheadPct float64) []metric {
	n := float64(runs)
	// The oracle's own time, without the candidate calls the routing
	// wrapper already timed inside Step.
	oracleSelfNs := ratio(t.replayNs-t.replayCandNs, t.replays) * t.oracleRuns
	childNs := t.endCycleNs + t.routeFailed*t.routeFailedMeanNs + t.candCritNs +
		t.trafficCritNs + t.observeEstNs + oracleSelfNs
	selfNs := t.stepNs - childNs
	return []metric{
		{"sim.step_us_mean", ratio(t.stepNs, t.cycles) / 1e3, "us"},
		{"sim.step_us_p99", t.stepP99Us / n, "us"},
		{"sim.self_us_per_cycle", ratio(selfNs, t.cycles) / 1e3, "us"},
		{"sim.flit_hops_per_cycle", ratio(t.flitHops, t.cycles), "1/cycle"},
		{"sim.ns_per_flit_hop", ratio(selfNs, t.flitHops), "ns"},
		{"sim.trace_overhead_pct", overheadPct, "%"},

		{"detect.end_cycle_us_mean", ratio(t.endCycleNs, t.cycles) / 1e3, "us"},
		{"detect.end_cycle_share", ratio(t.endCycleNs, t.stepNs), "ratio"},
		{"detect.route_failed_calls_per_cycle", ratio(t.routeFailed, t.cycles), "1/cycle"},
		{"detect.route_failed_ns_mean", t.routeFailedMeanNs, "ns"},
		{"detect.vc_freed_calls_per_cycle", ratio(t.vcFreed, t.cycles), "1/cycle"},
		{"detect.marks", t.marks / n, "count"},
		{"detect.true_mark_ratio", ratio(t.trueMarks, t.marks), "ratio"},
		{"detect.false_mark_pct", t.falsePct / n, "%"},

		{"routing.candidates_calls_per_cycle", ratio(t.candCalls, t.cycles), "1/cycle"},
		{"routing.candidates_ns_mean", t.candMeanNs, "ns"},
		{"routing.share", ratio(t.candCritNs, t.stepNs), "ratio"},

		{"traffic.arrivals_per_cycle", ratio(t.arrivals, t.cycles), "1/cycle"},
		{"traffic.ns_per_arrival", ratio(t.trafficMeanNs*t.trafficCalls, t.arrivals), "ns"},

		{"deadlock.recompute_us_mean", ratio(t.replayNs, t.replays) / 1e3, "us"},
		{"deadlock.set_size_mean", ratio(t.replaySetSum, t.replays), "count"},
		{"deadlock.runs_per_kcycle", 1e3 * ratio(t.oracleRuns, t.cycles), "1/kcycle"},

		{"recovery.absorbed_per_kcycle", 1e3 * ratio(t.absorbed, t.measured), "1/kcycle"},
		{"recovery.reinjected_per_kcycle", 1e3 * ratio(t.reinjected, t.measured), "1/kcycle"},

		{"trace.events_per_cycle", ratio(t.traceEvents, t.cycles), "1/cycle"},

		{"forensics.observe_ns_mean", t.observeMeanNs, "ns"},
		{"forensics.share", ratio(t.observeEstNs, t.stepNs), "ratio"},
		{"forensics.finish_ms", t.finishNs / n / 1e6, "ms"},

		{"metrics.samples", t.samples / n, "count"},
		{"metrics.series_write_ms", t.seriesNs / n / 1e6, "ms"},

		{"exp.estimate_saturation_s", t.estimateSaturationNs / n / 1e9, "s"},
		{"harness.cells_per_s", t.cellsPerSec / n, "1/s"},

		{"go.gc_cycles", t.gcCycles / n, "count"},
		{"go.gc_pause_ms", t.gcPauseNs / n / 1e6, "ms"},
	}
}
