package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"trajmotif"
)

// paper-cold sizes: per dataset, paperSelf self-motif trajectories and
// paperCross trajectory pairs (Fig. 21's two-trajectory variant), all of
// paperN points. Each job runs BTM, then GTM, with paperWorkers. One pass
// of the list takes 15-25 s on the 2-vCPU reference host.
const (
	paperN     = 300
	paperSelf  = 40
	paperCross = 20
	// paperWorkers pins the library's worker count. At the default
	// (GOMAXPROCS) every grid build and sweep joins its workers, so on a
	// shared host a stall on one core stalls the call, and GTM's
	// seed-to-seed spread exceeded its bound. One worker leaves a core
	// free to absorb such stalls.
	paperWorkers = 1
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, and the last set-up is the one measured against.
const setupRepeats = 5

// paperJob is one paper-cold job: a self-motif trajectory (u == nil) or
// a cross pair.
type paperJob struct {
	ds   trajmotif.DatasetName
	t, u *trajmotif.Trajectory
}

// paperJobs derives the fixed paper-cold job list from the seed,
// interleaving the datasets so no stretch of a pass runs one dataset.
func paperJobs(seed int64) ([]paperJob, error) {
	var jobs []paperJob
	for k := 0; k < max(paperSelf, paperCross); k++ {
		for _, ds := range datasets {
			if k < paperSelf {
				t, err := generate(ds, subSeed(seed, "paper-self-"+string(ds), k), paperN)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, paperJob{ds: ds, t: t})
			}
			if k < paperCross {
				t, u, err := generatePair(ds, subSeed(seed, "paper-cross-"+string(ds), k), paperN)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, paperJob{ds: ds, t: t, u: u})
			}
		}
	}
	return jobs, nil
}

// paperCall is one timed library call of a job.
type paperCall struct {
	kind string // kindBTM or kindGTM
	wall time.Duration
	res  *trajmotif.Result
	err  error
}

// runPaperJob runs a job's BTM then GTM call; wrap, when non-nil,
// surrounds each call (the traced pass opens its op span there).
func runPaperJob(j paperJob, opt *trajmotif.Options, wrap func(kind string, call func())) [2]paperCall {
	if wrap == nil {
		wrap = func(_ string, call func()) { call() }
	}
	var out [2]paperCall
	out[0].kind, out[1].kind = kindBTM, kindGTM
	wrap(kindBTM, func() {
		t0 := time.Now()
		if j.u == nil {
			out[0].res, out[0].err = trajmotif.BTM(j.t, xi, opt)
		} else {
			out[0].res, out[0].err = trajmotif.BTMBetween(j.t, j.u, xi, opt)
		}
		out[0].wall = time.Since(t0)
	})
	wrap(kindGTM, func() {
		t0 := time.Now()
		var g *trajmotif.GroupResult
		if j.u == nil {
			g, out[1].err = trajmotif.GTM(j.t, xi, tau, opt)
		} else {
			g, out[1].err = trajmotif.GTMBetween(j.t, j.u, xi, tau, opt)
		}
		out[1].wall = time.Since(t0)
		if g != nil {
			out[1].res = &g.Result
		}
	})
	return out
}

// checkPaperJob is paper-cold's oracle: BTM and GTM must both succeed
// with bit-equal distances (the paper's all-algorithms-agree invariant),
// and neither may report reuse — paper-cold never touches a store, so
// every call builds its grid and bound tables from scratch.
func checkPaperJob(c [2]paperCall) error {
	for _, x := range c {
		if x.err != nil {
			return fmt.Errorf("%s: %w", x.kind, x.err)
		}
		if x.res.Stats.GridRebuildsAvoided != 0 {
			return fmt.Errorf("%s reused %d artifacts in a store-free run", x.kind, x.res.Stats.GridRebuildsAvoided)
		}
	}
	if a, b := math.Float64bits(c[0].res.Distance), math.Float64bits(c[1].res.Distance); a != b {
		return fmt.Errorf("BTM distance %v != GTM distance %v", c[0].res.Distance, c[1].res.Distance)
	}
	return nil
}

// paperSetupRepeats is setupRepeats for paper-cold, whose set-up (input
// generation alone) takes only about 15 ms: a median over more set-ups
// keeps setup_s steady.
const paperSetupRepeats = 15

// paperSetup generates the job list paperSetupRepeats times and returns the
// last list with the median generation time, each normalized by the
// calibration kernel run right after it.
func paperSetup(seed int64, cal *calibrator) ([]paperJob, float64, error) {
	var jobs []paperJob
	var raw, times []float64
	for r := 0; r < paperSetupRepeats; r++ {
		runtime.GC() // the previous list's garbage is not this set-up's cost
		t0 := time.Now()
		var err error
		if jobs, err = paperJobs(seed); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		raw = append(raw, d.Seconds())
		times = append(times, cal.normalize(d).Seconds())
	}
	report("paper-cold set-up times: %s (raw median %.4fs)", secondsList(times), median(raw))
	return jobs, median(times), nil
}

// runPaperCold replays the job list, usually once in the window, and
// times every call. The reference host's speed changes by up to a
// third within a second or two, so each call's wall time is
// divided by the calibration kernel run right after it and reported as
// on a host of the reference speed (see calibrator); the report lines
// print the raw figures too. Rates are per second at the geometric-mean
// call, so the few costliest jobs a seed draws (baboon BTM calls take
// 20-400 ms) do not set the figure; the summed rates are printed too.
func runPaperCold(o *options, _ *runEnv) (*result, error) {
	cal := newCalibrator()
	jobs, setup, err := paperSetup(o.seed, cal)
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		return tracePaperCold(o, jobs)
	}

	var attempted, failed int64
	var btm, gtm, all, rawBTM, rawGTM, rawAll samples
	var measured time.Duration
	passes := 0
	runtime.GC()
	for {
		passStart := time.Now()
		for _, j := range jobs {
			var norm [2]time.Duration
			k := 0
			wrap := func(_ string, call func()) {
				t0 := time.Now()
				call()
				norm[k] = cal.normalize(time.Since(t0))
				k++
			}
			c := runPaperJob(j, &trajmotif.Options{Workers: paperWorkers}, wrap)
			attempted += 2
			if err := checkPaperJob(c); err != nil {
				failed += 2
				fmt.Printf("perfbench: paper-cold %s job: %v\n", j.ds, err)
				continue
			}
			btm = append(btm, norm[0])
			gtm = append(gtm, norm[1])
			all = append(all, norm[0], norm[1])
			rawBTM = append(rawBTM, c[0].wall)
			rawGTM = append(rawGTM, c[1].wall)
			rawAll = append(rawAll, c[0].wall, c[1].wall)
		}
		pass := time.Since(passStart)
		measured += pass
		passes++
		if measured+pass > o.window() {
			break
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	report("paper-cold: %d jobs x %d passes (n=%d, xi=%d, tau=%d, workers=%d) in %.2fs, %.1f calls/s overall",
		len(jobs), passes, paperN, xi, tau, paperWorkers, measured.Seconds(), float64(attempted)/measured.Seconds())
	report("paper-cold calibration: median kernel %.3f ms over %d runs (reference %.1f ms)",
		cal.medianMS(), len(cal.times), calibRefMS)
	report("paper-cold discover latency samples: n=%d (btm %d, gtm %d); raw btm %.3f/s, gtm %.3f/s, all %.3f/s, p50 %.3f ms, p90 %.3f ms; summed raw rates btm %.3f/s, gtm %.3f/s",
		len(all), len(btm), len(gtm), rawBTM.geoPerSecond(), rawGTM.geoPerSecond(), rawAll.geoPerSecond(),
		rawAll.quantile(0.5), rawAll.quantile(0.9), rawBTM.perSecond(), rawGTM.perSecond())
	ok := float64(attempted-failed) / float64(attempted)
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":         {setup, "s"},
			"btm_per_s":       {btm.geoPerSecond(), "1/s"},
			"gtm_per_s":       {gtm.geoPerSecond(), "1/s"},
			"discover_p50_ms": {all.quantile(0.5), "ms"},
			"discover_p90_ms": {all.quantile(0.9), "ms"},
			"req_per_s":       {all.geoPerSecond(), "1/s"},
			"ok_frac":         {ok, "frac"},
			"peak_rss_mb":     {rss, "MB"},
		},
	}, nil
}

// tracePaperCold alternates traced and untraced passes of the job list
// for the window (at least one of each). Traced passes route artifacts
// through the timing source and time each call as an op span.
func tracePaperCold(o *options, jobs []paperJob) (*result, error) {
	rec := newRecorder()
	rec.on.Store(true)
	led := newLedger()
	var cnt layerCounts
	var attempted, failed int64
	var op int64
	var tracedWall, untracedWall time.Duration
	var tracedOps, untracedOps int
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < o.window(); pass++ {
		traced := pass%2 == 0
		opt := &trajmotif.Options{Workers: paperWorkers}
		var wrap func(string, func())
		rt0 := readRuntime()
		if traced {
			opt.Artifacts = timingSource{rec}
			wrap = func(kind string, call func()) {
				op++
				idx := rec.open("op."+kind, op)
				call()
				rec.close(idx)
			}
		}
		t0 := time.Now()
		for _, j := range jobs {
			first := op + 1
			c := runPaperJob(j, opt, wrap)
			attempted += 2
			if err := checkPaperJob(c); err != nil {
				failed += 2
				fmt.Printf("perfbench: paper-cold traced %s job: %v\n", j.ds, err)
				continue
			}
			if !traced {
				continue
			}
			for k, x := range c {
				led.addLibraryOp(rec.opSpans(first+int64(k)), x.kind, libTimes{x.res.Stats.Precompute, x.res.Stats.Search})
				cnt.addMotif(x.res.Stats)
			}
		}
		if traced {
			tracedWall += time.Since(t0)
			tracedOps += 2 * len(jobs)
			cnt.addRuntime(rt0, readRuntime())
		} else {
			untracedWall += time.Since(t0)
			untracedOps += 2 * len(jobs)
		}
	}
	cnt.overhead = ratio(float64(untracedOps)/untracedWall.Seconds(), float64(tracedOps)/tracedWall.Seconds()) - 1
	if err := rec.writeFile(traceFile(o)); err != nil {
		return nil, err
	}
	led.reportLayers("paper-cold")
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: perLayerMetrics(led, &cnt),
	}, nil
}
