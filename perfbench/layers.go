package main

import (
	"fmt"
	"path/filepath"
	"time"

	"trajmotif"
)

// storeCounters are the /stats counters the per-layer metrics diff.
type storeCounters struct {
	Trajectories int   `json:"trajectories"`
	Built        int64 `json:"built"`
	Reused       int64 `json:"reused"`
	Evicted      int64 `json:"evicted"`
	DiskWrites   int64 `json:"diskWrites"`
	DiskReads    int64 `json:"diskReads"`
	DiskErrors   int64 `json:"diskErrors"`
	Rejected     int64 `json:"rejected"`
}

func (a storeCounters) minus(b storeCounters) storeCounters {
	return storeCounters{
		Trajectories: a.Trajectories,
		Built:        a.Built - b.Built,
		Reused:       a.Reused - b.Reused,
		Evicted:      a.Evicted - b.Evicted,
		DiskWrites:   a.DiskWrites - b.DiskWrites,
		DiskReads:    a.DiskReads - b.DiskReads,
		DiskErrors:   a.DiskErrors - b.DiskErrors,
		Rejected:     a.Rejected - b.Rejected,
	}
}

// plus sums two deltas; Trajectories, a gauge, takes b's value.
func (a storeCounters) plus(b storeCounters) storeCounters {
	return storeCounters{
		Trajectories: b.Trajectories,
		Built:        a.Built + b.Built,
		Reused:       a.Reused + b.Reused,
		Evicted:      a.Evicted + b.Evicted,
		DiskWrites:   a.DiskWrites + b.DiskWrites,
		DiskReads:    a.DiskReads + b.DiskReads,
		DiskErrors:   a.DiskErrors + b.DiskErrors,
		Rejected:     a.Rejected + b.Rejected,
	}
}

func (c storeCounters) String() string {
	return fmt.Sprintf("built=%d reused=%d evicted=%d diskWrites=%d diskReads=%d diskErrors=%d rejected=%d trajectories=%d",
		c.Built, c.Reused, c.Evicted, c.DiskWrites, c.DiskReads, c.DiskErrors, c.Rejected, c.Trajectories)
}

// layerCounts are the exact counts and runtime deltas of a traced pass.
type layerCounts struct {
	subsets, processed, dpCells int64
	motifOps                    int
	knnExact, knnCandidates     int64
	joinIndexPruned, joinPairs  int64
	store                       storeCounters // delta over the traced pass
	ops                         int           // operations the store deltas cover
	allocBytes, gcCPU, totalCPU float64
	overhead                    float64
}

func (c *layerCounts) addMotif(st trajmotif.Stats) {
	c.subsets += st.Subsets
	c.processed += st.SubsetsProcessed
	c.dpCells += st.DPCells
	c.motifOps++
}

func (c *layerCounts) addRuntime(a, b runtimeSample) {
	c.allocBytes += b.allocBytes - a.allocBytes
	c.gcCPU += b.gcCPU - a.gcCPU
	c.totalCPU += b.totalCPU - a.totalCPU
}

// servedRoutes are the routes whose ServeHTTP time is reported as
// serve.<route>_ms.
var servedRoutes = []string{"discover", "topk", "knn", "join", "upload"}

// perLayerMetrics renders the per-layer metrics of BENCHMARK.json. A
// layer or route the workload bypasses reads 0.
func perLayerMetrics(l *ledger, c *layerCounts) map[string]metric {
	m := map[string]metric{}
	for name, v := range l.perOpMS() {
		m[name+"_ms"] = metric{v, "ms"}
	}
	for _, route := range servedRoutes {
		m["serve."+route+"_ms"] = metric{l.routeP50MS(route), "ms"}
	}
	ops := float64(l.ops)
	if c.ops > 0 {
		ops = float64(c.ops)
	}
	m["trace.op_ms"] = metric{ratio(float64(l.total)/float64(time.Millisecond), float64(l.ops)), "ms"}
	m["trace.overhead_frac"] = metric{c.overhead, "frac"}
	m["core.processed_frac"] = metric{ratio(float64(c.processed), float64(c.subsets)), "frac"}
	m["core.dp_cells_per_op"] = metric{ratio(float64(c.dpCells), float64(c.motifOps)), "count"}
	m["knn.exact_frac"] = metric{ratio(float64(c.knnExact), float64(c.knnCandidates)), "frac"}
	m["join.index_pruned_frac"] = metric{ratio(float64(c.joinIndexPruned), float64(c.joinPairs)), "frac"}
	m["store.hit_frac"] = metric{ratio(float64(c.store.Reused), float64(c.store.Built+c.store.Reused)), "frac"}
	m["store.evictions_per_op"] = metric{ratio(float64(c.store.Evicted), ops), "count"}
	m["store.disk_reads_per_op"] = metric{ratio(float64(c.store.DiskReads), ops), "count"}
	m["store.disk_writes_per_op"] = metric{ratio(float64(c.store.DiskWrites), ops), "count"}
	m["admission.rejected"] = metric{float64(c.store.Rejected), "count"}
	m["runtime.alloc_mb_per_op"] = metric{ratio(c.allocBytes/(1<<20), float64(l.ops)), "MB"}
	m["runtime.gc_cpu_frac"] = metric{ratio(c.gcCPU, c.totalCPU), "frac"}
	report("traced bases: ops=%d subsets=%d processed=%d dpCells=%d knn candidates=%d exact=%d join pairs=%d indexPruned=%d store %s",
		l.ops, c.subsets, c.processed, c.dpCells, c.knnCandidates, c.knnExact, c.joinPairs, c.joinIndexPruned, c.store)
	return m
}

// traceFile is where a traced run writes its spans.
func traceFile(o *options) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}
