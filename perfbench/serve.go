package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trajmotif"
)

// serveWorkload is one traffic mix against the motif server. The
// harness owns the server, the clients and the measurement; the
// workload owns its inputs, oracle, set-up traffic and client loop.
type serveWorkload interface {
	name() string
	// generate derives every input from the seed (part of set-up).
	generate(seed int64) error
	// oracle computes the expected answers through the library facade.
	oracle() error
	// serverFlags are the motifserve flags; storeOptions the matching
	// in-process store configuration of the traced run.
	serverFlags(dir string) []string
	storeOptions(dir string) *trajmotif.StoreOptions
	// prepare brings a fresh server to the measured phase's starting
	// state (uploads, cache warm-up) with the given clients.
	prepare(cs []*client) error
	// loop runs client ci's i-th loop of the fixed job sequence.
	loop(c *client, ci, i int, obs *observer)
	// firstLoop is the loop index the measured phase starts at.
	firstLoop() int
	// premise checks the store-counter deltas of a measured phase.
	premise(delta storeCounters, clients int) error
}

// clientCount is the number of closed-loop clients: one per core, at
// most two, so the workload keeps its shape on larger hosts.
func clientCount() int { return min(runtime.NumCPU(), 2) }

// runServe runs a serve workload end to end against a motifserve child,
// or its traced pass in process.
func runServe(o *options, env *runEnv, w serveWorkload) (*result, error) {
	if err := w.generate(o.seed); err != nil {
		return nil, err
	}
	if err := w.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if o.trace == 1 {
		return traceServe(o, env, w)
	}
	if _, err := env.motifserveBinary(); err != nil {
		return nil, err
	}

	nc := clientCount()
	hc := newHTTPClient(nc)
	var srv *child
	var cs []*client
	var setups []float64
	var dir string
	for r := 0; r < setupRepeats; r++ {
		if srv != nil {
			srv.stop()
			os.RemoveAll(dir)
		}
		// Collect the oracle's and earlier set-ups' garbage first, so
		// this process's collector does not compete with the server for
		// CPU inside a timed phase.
		runtime.GC()
		t0 := time.Now()
		if err := w.generate(o.seed); err != nil {
			return nil, err
		}
		var err error
		if dir, err = env.tempDir(w.name() + "-"); err != nil {
			return nil, err
		}
		if srv, err = env.startServer(w.serverFlags(dir)...); err != nil {
			return nil, err
		}
		cs = cs[:0]
		for k := 0; k < nc; k++ {
			cs = append(cs, &client{base: "http://" + srv.addr, hc: hc})
		}
		if err := w.prepare(cs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	report("%s set-up times: %s", w.name(), secondsList(setups))

	before, err := cs[0].counters()
	if err != nil {
		return nil, err
	}
	obs := &observer{}
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for k := range cs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := w.firstLoop(); time.Since(start) < o.window(); i++ {
				w.loop(cs[ci], ci, i, obs)
			}
		}(k)
	}
	wg.Wait()
	measured := time.Since(start)
	after, err := cs[0].counters()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	delta := after.minus(before)
	report("%s measured %.2fs with %d clients; store deltas %s", w.name(), measured.Seconds(), nc, delta)
	if err := w.premise(delta, nc); err != nil {
		return nil, fmt.Errorf("workload premise violated: %w", err)
	}

	attempted, failed := obs.counts()
	disc := obs.latencies(kindGTM, kindBTM)
	for _, kind := range []string{kindGTM, kindBTM, kindTopK, kindKNN, kindJoin, kindUpload, kindDelete} {
		if s := obs.latencies(kind); len(s) > 0 {
			report("%s %s latency: p50 %.3f ms, p90 %.3f ms (n=%d)", w.name(), kind, s.quantile(0.5), s.quantile(0.9), len(s))
		}
	}
	report("%s discover latency samples: n=%d", w.name(), len(disc))
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"btm_per_s":       {obs.latencies(kindBTM).perSecond(), "1/s"},
			"gtm_per_s":       {obs.latencies(kindGTM).perSecond(), "1/s"},
			"discover_p50_ms": {disc.quantile(0.5), "ms"},
			"discover_p90_ms": {disc.quantile(0.9), "ms"},
			"req_per_s":       {float64(attempted-failed) / measured.Seconds(), "1/s"},
			"ok_frac":         {float64(attempted-failed) / float64(attempted), "frac"},
			"peak_rss_mb":     {rss, "MB"},
		},
	}, nil
}

// traceServe is the traced pass: the server runs in process over the
// timing backend, behind the timing handler, on a loopback listener,
// and one client alternates traced and untraced loops of the job
// sequence for the window (at least one of each).
func traceServe(o *options, env *runEnv, w serveWorkload) (*result, error) {
	dir, err := env.tempDir(w.name() + "-trace-")
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	st := trajmotif.NewStore(w.storeOptions(dir))
	srv := trajmotif.NewServerWith(&timedBackend{b: st, rec: rec}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: &timedHandler{next: srv, rec: rec}}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	var ops atomic.Int64
	c := &client{base: "http://" + ln.Addr().String(), hc: newHTTPClient(1), rec: rec, ops: &ops}
	if err := w.prepare([]*client{c}); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	led := newLedger()
	var cnt layerCounts
	var all observer
	var tracedWall, untracedWall time.Duration
	var tracedOps, untracedOps int
	var total storeCounters
	start := time.Now()
	for k, i := 0, w.firstLoop(); k < 2 || time.Since(start) < o.window(); k, i = k+1, i+1 {
		traced := k%2 == 0
		before, err := c.counters()
		if err != nil {
			return nil, err
		}
		obs := &observer{}
		rt0 := readRuntime()
		rec.on.Store(traced)
		t0 := time.Now()
		w.loop(c, 0, i, obs)
		wall := time.Since(t0)
		rec.on.Store(false)
		rt1 := readRuntime()
		after, err := c.counters()
		if err != nil {
			return nil, err
		}
		d := after.minus(before)
		total = total.plus(d)
		all.recs = append(all.recs, obs.recs...)
		if !traced {
			untracedWall += wall
			untracedOps += len(obs.recs)
			continue
		}
		tracedWall += wall
		tracedOps += len(obs.recs)
		cnt.addRuntime(rt0, rt1)
		cnt.store = cnt.store.plus(d)
		cnt.ops += len(obs.recs)
		for _, r := range obs.recs {
			if r.err != nil {
				continue
			}
			if err := led.addServeOp(rec.opSpans(r.op), r.kind, r.lib); err != nil {
				return nil, err
			}
			for _, m := range r.motif {
				cnt.subsets += m.Stats.Subsets
				cnt.processed += m.Stats.SubsetsProcessed
				cnt.dpCells += m.Stats.DPCells
			}
			if len(r.motif) > 0 {
				cnt.motifOps++
			}
			if r.knn != nil {
				cnt.knnCandidates += r.knn.Candidates
				cnt.knnExact += r.knn.Exact
			}
			if r.join != nil {
				cnt.joinPairs += r.join.Pairs
				cnt.joinIndexPruned += r.join.IndexPruned
			}
		}
	}
	total.Trajectories = st.Len()
	if err := w.premise(total, 1); err != nil {
		return nil, fmt.Errorf("workload premise violated: %w", err)
	}
	cnt.overhead = ratio(float64(untracedOps)/untracedWall.Seconds(), float64(tracedOps)/tracedWall.Seconds()) - 1
	if err := rec.writeFile(traceFile(o)); err != nil {
		return nil, err
	}
	led.reportLayers(w.name())
	attempted, failed := all.counts()
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: perLayerMetrics(led, &cnt),
	}, nil
}

// parallel runs f(k) for k in [0, n) on up to workers goroutines and
// returns the first error.
func parallel(n, workers int, f func(k int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n || errs[w] != nil {
					return
				}
				errs[w] = f(k)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}
