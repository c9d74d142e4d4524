package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajmotif/internal/bounds"
	"trajmotif/internal/core"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
	"trajmotif/internal/serve"
	"trajmotif/internal/spatial"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// span is one timed interval of the traced run. Start and End are
// offsets from the recorder's origin (monotonic clock); Parent indexes
// the enclosing span (-1 for an operation's root) and Op names the
// operation (one client request or library call) the span belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the traced run's spans in memory. The traced run has
// one caller, so at most one operation is in flight: open spans form a
// stack, and a span recorded by a layer nests in the innermost open one.
type recorder struct {
	on     atomic.Bool
	mu     sync.Mutex
	origin time.Time
	spans  []span
	stack  []int
	byOp   map[int64][]int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), byOp: map[int64][]int{}}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// open starts a span under the innermost open span (or as the root of
// op when op is non-zero and nothing is open) and returns its index.
func (r *recorder) open(name string, op int64) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
		op = r.spans[parent].Op
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	r.stack = append(r.stack, idx)
	r.byOp[op] = append(r.byOp[op], idx)
	return idx
}

// close ends the span open returned.
func (r *recorder) close(idx int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[idx].End = now
	if n := len(r.stack); n > 0 && r.stack[n-1] == idx {
		r.stack = r.stack[:n-1]
	}
}

// child records a finished interval under the innermost open span.
func (r *recorder) child(name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent, op := -1, int64(0)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
		op = r.spans[parent].Op
	}
	r.spans = append(r.spans, span{
		Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin), Parent: parent, Op: op,
	})
	r.byOp[op] = append(r.byOp[op], len(r.spans)-1)
}

// opSpans returns a copy of the spans of one operation, in record order.
func (r *recorder) opSpans(op int64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.byOp[op]))
	for _, k := range r.byOp[op] {
		out = append(out, r.spans[k])
	}
	return out
}

// writeFile writes every span, one JSON object per line.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is parent's duration minus the part of it covered by the
// union of its children's intervals: overlapping children count once,
// and child time outside the parent does not count.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered time.Duration
	var curS, curE time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				covered += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		curE = max(curE, x[1])
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// timingSource is a core.ArtifactSource that builds exactly what the
// library's default source (core.ResolveArtifacts(nil)) builds, timing
// the grid and the bound tables as dmatrix.grid and bounds.relaxed spans.
type timingSource struct{ rec *recorder }

func (s timingSource) Artifacts(req core.ArtifactRequest) (*dmatrix.Matrix, *bounds.Relaxed, int) {
	t0 := time.Now()
	var g *dmatrix.Matrix
	if req.Self {
		g = dmatrix.ComputeSelfParallel(req.A, req.Dist, req.Workers)
	} else {
		g = dmatrix.ComputeCrossParallel(req.A, req.B, req.Dist, req.Workers)
	}
	if req.Float32 {
		g = g.Compact32()
	}
	t1 := time.Now()
	s.rec.child("dmatrix.grid", t0, t1)
	var rb *bounds.Relaxed
	if req.WithBounds {
		rb = bounds.NewRelaxed(g, bounds.PointParams(req.Xi, req.Self))
		s.rec.child("bounds.relaxed", t1, time.Now())
	}
	return g, rb, 0
}

// Resolve-path span names of the timing backend.
const (
	resolveHit   = "store.resolve_hit"
	resolveDisk  = "store.resolve_disk"
	resolveBuild = "store.resolve_build"
)

// classifyResolve names the path one Artifacts call took: build when
// any requested artifact was constructed (reused short of wanted), disk
// when everything was reused but the disk tier was read, hit otherwise.
func classifyResolve(reused, wanted int, diskReads int64) string {
	switch {
	case reused < wanted:
		return resolveBuild
	case diskReads > 0:
		return resolveDisk
	}
	return resolveHit
}

// timedBackend decorates a serve.Backend, forwarding every method
// unchanged and, while its recorder is on, timing the store calls that
// do work as store.* spans.
type timedBackend struct {
	b   serve.Backend
	rec *recorder
}

var _ serve.Backend = (*timedBackend)(nil)

func (t *timedBackend) Artifacts(req core.ArtifactRequest) (*dmatrix.Matrix, *bounds.Relaxed, int) {
	if !t.rec.enabled() {
		return t.b.Artifacts(req)
	}
	before := t.b.Stats().DiskReads
	t0 := time.Now()
	g, rb, reused := t.b.Artifacts(req)
	t1 := time.Now()
	wanted := 1
	if req.WithBounds {
		wanted = 2
	}
	t.rec.child(classifyResolve(reused, wanted, t.b.Stats().DiskReads-before), t0, t1)
	return g, rb, reused
}

func (t *timedBackend) Add(tr *traj.Trajectory) (store.ID, bool, error) {
	if !t.rec.enabled() {
		return t.b.Add(tr)
	}
	t0 := time.Now()
	id, created, err := t.b.Add(tr)
	t.rec.child("store.add", t0, time.Now())
	return id, created, err
}

func (t *timedBackend) Remove(id store.ID) bool {
	if !t.rec.enabled() {
		return t.b.Remove(id)
	}
	t0 := time.Now()
	ok := t.b.Remove(id)
	t.rec.child("store.remove", t0, time.Now())
	return ok
}

func (t *timedBackend) IndexFor(ids []store.ID, ts []*traj.Trajectory) *spatial.Index {
	if !t.rec.enabled() {
		return t.b.IndexFor(ids, ts)
	}
	t0 := time.Now()
	ix := t.b.IndexFor(ids, ts)
	t.rec.child("store.index", t0, time.Now())
	return ix
}

// EndpointDists times the memo's construction and every lookup through
// the returned function, each as its own store.endpoint_dists span. A
// nil memo (caching disabled) is returned as nil, so the caller falls
// back to direct evaluation as it would without the decorator.
func (t *timedBackend) EndpointDists(ts []*traj.Trajectory) func(i, j int) (float64, float64, bool) {
	if !t.rec.enabled() {
		return t.b.EndpointDists(ts)
	}
	t0 := time.Now()
	f := t.b.EndpointDists(ts)
	t.rec.child("store.endpoint_dists", t0, time.Now())
	if f == nil {
		return nil
	}
	return func(i, j int) (float64, float64, bool) {
		s := time.Now()
		d0, dn, ok := f(i, j)
		t.rec.child("store.endpoint_dists", s, time.Now())
		return d0, dn, ok
	}
}

func (t *timedBackend) Get(id store.ID) (*traj.Trajectory, bool) { return t.b.Get(id) }
func (t *timedBackend) Len() int                                 { return t.b.Len() }
func (t *timedBackend) IDs() []store.ID                          { return t.b.IDs() }
func (t *timedBackend) Dist() geo.DistanceFunc                   { return t.b.Dist() }
func (t *timedBackend) Stats() store.Stats                       { return t.b.Stats() }
func (t *timedBackend) PointDists(pts []geo.Point) func(i, j int) (float64, bool) {
	return t.b.PointDists(pts)
}

// opHeader carries the client's operation id to the traced handler.
const opHeader = "X-Perfbench-Op"

// timedHandler wraps the server's handler, timing ServeHTTP as a
// serve.<route> span nested in the client's operation span.
type timedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	idx := h.rec.open("serve."+routeName(r.Method, r.URL.Path), op)
	h.next.ServeHTTP(w, r)
	h.rec.close(idx)
}

// Operation kinds the ledger attributes.
const (
	kindBTM    = "btm"
	kindGTM    = "gtm"
	kindTopK   = "topk"
	kindKNN    = "knn"
	kindJoin   = "join"
	kindUpload = "upload"
	kindDelete = "delete"
)

// libTimes are the library's own phase timings of one operation, from
// core.Stats (in process) or the response's precomputeMs/searchMs.
type libTimes struct {
	precompute, search time.Duration
}

// layers are the layers whose self times partition a traced
// operation's wall time, in report order. Each is reported as
// <layer>_ms: its summed self time over the number of traced operations,
// so the layers of a workload add up to trace.op_ms.
var layers = []string{
	"transport",
	"serve.discover_self", "serve.topk_self", "serve.upload_self", "serve.delete_self",
	resolveHit, resolveDisk, resolveBuild,
	"store.add", "store.remove", "store.index", "store.endpoint_dists",
	"knn.search", "join.search",
	"dmatrix.grid", "bounds.relaxed",
	"core.candidates", "core.sweep",
	"group.precompute", "group.search",
	"trace.unattributed",
}

// ledger sums per-layer self time over the traced operations, and each
// route's ServeHTTP time for the report.
type ledger struct {
	self   map[string]time.Duration
	total  time.Duration
	ops    int
	routes map[string]samples
}

func newLedger() *ledger {
	return &ledger{self: map[string]time.Duration{}, routes: map[string]samples{}}
}

// addLibraryOp attributes one in-process library call (paper-cold): the
// op span's children are the timing source's artifact spans.
func (l *ledger) addLibraryOp(spans []span, kind string, lib libTimes) {
	var root span
	var art time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			root = s
			continue
		}
		l.self[s.Name] += s.dur()
		art += s.dur()
	}
	switch kind {
	case kindBTM:
		l.self["core.candidates"] += lib.precompute - art
		l.self["core.sweep"] += lib.search
	case kindGTM:
		l.self["group.precompute"] += lib.precompute - art
		l.self["group.search"] += lib.search
	}
	l.self["trace.unattributed"] += root.dur() - lib.precompute - lib.search
	l.total += root.dur()
	l.ops++
}

// addServeOp attributes one traced HTTP request: transport is the client
// span's time outside ServeHTTP, store spans count in full, the
// library's phases come from the response, and the rest of ServeHTTP is
// the route's own (serve) self time.
func (l *ledger) addServeOp(spans []span, kind string, lib libTimes) error {
	var client, srv span
	var haveClient, haveSrv bool
	var store []span
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "client."):
			client, haveClient = s, true
		case strings.HasPrefix(s.Name, "serve."):
			srv, haveSrv = s, true
		default:
			store = append(store, s)
		}
	}
	if !haveClient || !haveSrv {
		return fmt.Errorf("traced %s op has no client or serve span (%d spans)", kind, len(spans))
	}
	l.self["transport"] += selfTime(client, []span{srv})
	l.routes[srv.Name] = append(l.routes[srv.Name], srv.dur())
	var art time.Duration
	for _, s := range store {
		l.self[s.Name] += s.dur()
		if strings.HasPrefix(s.Name, "store.resolve_") {
			art += s.dur()
		}
	}
	own := selfTime(srv, store)
	switch kind {
	case kindBTM:
		l.self["core.candidates"] += lib.precompute - art
		l.self["core.sweep"] += lib.search
		l.self["serve.discover_self"] += own - (lib.precompute - art) - lib.search
	case kindGTM:
		l.self["group.precompute"] += lib.precompute - art
		l.self["group.search"] += lib.search
		l.self["serve.discover_self"] += own - (lib.precompute - art) - lib.search
	case kindTopK:
		// core.TopK's Precompute stops before its entry build and sort,
		// so those stay in the route's self time.
		l.self["core.candidates"] += lib.precompute - art
		l.self["core.sweep"] += lib.search
		l.self["serve.topk_self"] += own - (lib.precompute - art) - lib.search
	case kindKNN:
		l.self["knn.search"] += own
	case kindJoin:
		l.self["join.search"] += own
	case kindUpload:
		l.self["serve.upload_self"] += own
	case kindDelete:
		l.self["serve.delete_self"] += own
	default:
		return fmt.Errorf("unknown traced op kind %q", kind)
	}
	l.total += client.dur()
	l.ops++
	return nil
}

// perOpMS returns every layer's mean self time per traced operation, in
// milliseconds; a layer the workload bypasses reads 0.
func (l *ledger) perOpMS() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, name := range layers {
		out[name] = ratio(float64(l.self[name])/float64(time.Millisecond), float64(l.ops))
	}
	return out
}

// routeP50MS returns the median ServeHTTP time of a route's traced
// requests in milliseconds, or 0 when the workload does not call it.
func (l *ledger) routeP50MS(route string) float64 {
	return l.routes["serve."+route].quantile(0.5)
}

// reportLayers prints each layer's mean self time per traced operation
// and its share of the traced operation time.
func (l *ledger) reportLayers(workload string) {
	if l.ops == 0 {
		return
	}
	var parts []string
	for _, name := range layers {
		if d := l.self[name]; d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.3fms (%.1f%%)", name,
				float64(d)/float64(time.Millisecond)/float64(l.ops), 100*float64(d)/float64(l.total)))
		}
	}
	report("%s traced self time per op over %d ops: %s", workload, l.ops, strings.Join(parts, " "))
	names := make([]string, 0, len(l.routes))
	for name := range l.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := l.routes[name]
		report("%s traced %s (ServeHTTP span): p50 %.3f ms (n=%d)", workload, name, s.quantile(0.5), len(s))
	}
}
