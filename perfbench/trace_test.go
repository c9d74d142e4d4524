package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"trajmotif"
	"trajmotif/internal/core"
	"trajmotif/internal/geo"
)

func ms(x int) time.Duration { return time.Duration(x) * time.Millisecond }

func sp(name string, start, end int) span {
	return span{Name: name, Start: ms(start), End: ms(end)}
}

func TestSelfTimeUnion(t *testing.T) {
	parent := sp("serve.discover", 0, 100)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"disjoint", []span{sp("a", 10, 20), sp("b", 30, 45)}, ms(75)},
		{"overlap counts once", []span{sp("a", 10, 30), sp("b", 20, 40)}, ms(70)},
		{"duplicate", []span{sp("a", 10, 30), sp("a", 10, 30)}, ms(80)},
		{"nested", []span{sp("a", 10, 60), sp("b", 20, 30)}, ms(50)},
		{"unsorted", []span{sp("b", 50, 70), sp("a", 10, 30), sp("c", 25, 55)}, ms(40)},
		{"clipped to parent", []span{sp("a", -10, 10), sp("b", 90, 120)}, ms(80)},
		{"outside parent", []span{sp("a", 150, 200)}, ms(100)},
		{"touching", []span{sp("a", 10, 20), sp("b", 20, 30)}, ms(80)},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyResolve(t *testing.T) {
	cases := []struct {
		reused, wanted int
		diskReads      int64
		want           string
	}{
		{2, 2, 0, resolveHit},
		{1, 1, 0, resolveHit},
		{2, 2, 1, resolveDisk},
		{2, 2, 2, resolveDisk},
		{1, 2, 0, resolveBuild},
		{1, 2, 1, resolveBuild}, // grid promoted from disk, bounds rebuilt
		{0, 2, 0, resolveBuild},
		{0, 1, 0, resolveBuild},
	}
	for _, c := range cases {
		if got := classifyResolve(c.reused, c.wanted, c.diskReads); got != c.want {
			t.Errorf("classifyResolve(%d, %d, %d) = %s, want %s", c.reused, c.wanted, c.diskReads, got, c.want)
		}
	}
}

// TestResolvePathsThroughStore drives the timing backend over a real
// store with a disk tier and a one-grid cache: a first search builds, a
// repeat hits RAM, and a search after the grid was demoted promotes it
// from disk.
func TestResolvePathsThroughStore(t *testing.T) {
	a := testTraj(t, trajmotif.GeoLife, 1, 100)
	b := testTraj(t, trajmotif.Truck, 2, 100)
	st := trajmotif.NewStore(&trajmotif.StoreOptions{ArtifactDir: t.TempDir(), CacheBytes: 100 * 100 * 8 * 3 / 2})
	rec := newRecorder()
	rec.on.Store(true)
	tb := &timedBackend{b: st, rec: rec}
	opt := &trajmotif.Options{Artifacts: tb, Workers: 1}
	var got []string
	for _, tr := range []*trajmotif.Trajectory{a, a, b, a} {
		if _, _, err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
		if _, err := trajmotif.BTM(tr, 8, opt); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec.spans[len(rec.spans)-1].Name)
	}
	want := []string{resolveBuild, resolveHit, resolveBuild, resolveDisk}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resolve paths %v, want %v", got, want)
	}
}

func TestTimingSourceMatchesCompute(t *testing.T) {
	a := testTraj(t, trajmotif.GeoLife, 3, 90)
	b := testTraj(t, trajmotif.Baboon, 4, 70)
	for _, self := range []bool{true, false} {
		for _, withBounds := range []bool{true, false} {
			for _, f32 := range []bool{false, true} {
				req := core.ArtifactRequest{
					A: a.Points, B: b.Points, Self: self, Xi: 8, WithBounds: withBounds,
					Dist: geo.Haversine, Workers: 2, Float32: f32,
				}
				if self {
					req.B = a.Points
				}
				rec := newRecorder()
				g, rb, reused := timingSource{rec}.Artifacts(req)
				wg, wrb, wreused := core.ResolveArtifacts(nil).Artifacts(req)
				name := fmt.Sprintf("self=%v bounds=%v f32=%v", self, withBounds, f32)
				if !reflect.DeepEqual(g, wg) || !reflect.DeepEqual(rb, wrb) || reused != wreused {
					t.Errorf("%s: timing source artifacts differ from the default source's", name)
				}
				wantSpans := 1
				if withBounds {
					wantSpans = 2
				}
				if len(rec.spans) != wantSpans || rec.spans[0].Name != "dmatrix.grid" {
					t.Errorf("%s: spans %+v", name, rec.spans)
				}
			}
		}
	}
}

// TestLedgerPartitions checks that a traced op's layer self times sum
// to its client latency, with each phase where its definition puts it.
func TestLedgerPartitions(t *testing.T) {
	l := newLedger()
	client := sp("client.discover", 0, 100)
	client.Parent = -1
	spans := []span{client, sp("serve.discover", 10, 90), sp(resolveHit, 20, 30)}
	if err := l.addServeOp(spans, kindGTM, libTimes{precompute: ms(30), search: ms(20)}); err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"transport": ms(20), resolveHit: ms(10), "group.precompute": ms(20),
		"group.search": ms(20), "serve.discover_self": ms(30),
	}
	var sum time.Duration
	for k, v := range l.self {
		sum += v
		if v != want[k] {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if sum != l.total || l.total != ms(100) {
		t.Errorf("layers sum to %v, total %v, want 100ms", sum, l.total)
	}

	p := newLedger()
	op := sp("op.btm", 0, 50)
	op.Parent = -1
	grid, bnd := sp("dmatrix.grid", 1, 11), sp("bounds.relaxed", 11, 14)
	grid.Parent, bnd.Parent = 0, 0
	p.addLibraryOp([]span{op, grid, bnd}, kindBTM, libTimes{precompute: ms(20), search: ms(29)})
	if p.self["core.candidates"] != ms(7) || p.self["core.sweep"] != ms(29) || p.self["trace.unattributed"] != ms(1) {
		t.Errorf("library op attribution %v", p.self)
	}
	var total float64
	for _, v := range p.perOpMS() {
		total += v
	}
	if total < 49.999 || total > 50.001 {
		t.Errorf("library op layers sum to %v ms, want 50", total)
	}
	if got := l.routeP50MS("discover"); got != 80 {
		t.Errorf("serve.discover p50 = %v ms, want 80", got)
	}
	if got := l.routeP50MS("knn"); got != 0 {
		t.Errorf("serve.knn p50 = %v ms for an uncalled route, want 0", got)
	}
}

// TestDecoratorParity sends one request per route to a server over a
// plain store and to one over the (recording) timing backend, and
// requires identical responses once wall-clock fields are scrubbed. It
// runs with the default cache and with caching disabled, where the
// store hands out no endpoint memo and every search builds.
func TestDecoratorParity(t *testing.T) {
	t.Run("default cache", func(t *testing.T) {
		decoratorParity(t, nil, []string{resolveBuild, resolveHit})
	})
	t.Run("cache disabled", func(t *testing.T) {
		decoratorParity(t, &trajmotif.StoreOptions{CacheBytes: -1}, []string{resolveBuild})
	})
}

func decoratorParity(t *testing.T, opt *trajmotif.StoreOptions, resolves []string) {
	plain := trajmotif.NewServerWith(trajmotif.NewStore(opt), nil)
	rec := newRecorder()
	rec.on.Store(true)
	timed := &timedHandler{next: trajmotif.NewServerWith(&timedBackend{b: trajmotif.NewStore(opt), rec: rec}, nil), rec: rec}

	a := testTraj(t, trajmotif.GeoLife, 5, 120)
	b := testTraj(t, trajmotif.Truck, 6, 120)
	c := testTraj(t, trajmotif.Baboon, 7, 120)
	_, bulk, err := encodeUpload([]*trajmotif.Trajectory{b, c})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][2]float64, len(a.Points))
	for k, p := range a.Points {
		pts[k] = [2]float64{p.Lat, p.Lng}
	}
	single, _ := json.Marshal(map[string]any{"points": pts})

	var ids []string
	do := func(method, path string, body []byte) {
		t.Helper()
		var out [2]string
		for k, h := range []http.Handler{plain, timed} {
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", method, path, w.Code, w.Body)
			}
			out[k] = scrubBody(t, path, w.Body.Bytes())
		}
		if out[0] != out[1] {
			t.Errorf("%s %s differs through the decorator:\n plain %s\n timed %s", method, path, out[0], out[1])
		}
		if path == "/trajectories/bulk" {
			var r bulkJSON
			if err := json.Unmarshal([]byte(out[0]), &r); err != nil {
				t.Fatal(err)
			}
			for _, x := range r.Records {
				ids = append(ids, x.ID)
			}
		}
	}
	post := func(path string, v any) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		do(http.MethodPost, path, body)
	}

	do(http.MethodPost, "/trajectories", single)
	do(http.MethodPost, "/trajectories/bulk", bulk)
	post("/discover", map[string]any{"id": ids[0], "xi": 8})
	post("/discover", map[string]any{"id": ids[0], "xi": 8, "algo": "btm"})
	post("/discover", map[string]any{"id": ids[0], "id2": ids[1], "xi": 8})
	post("/discover/pairs", map[string]any{"ids": ids, "xi": 8})
	post("/topk", map[string]any{"id": ids[1], "xi": 8, "k": 2})
	post("/knn", map[string]any{"query": ids[0], "k": 1})
	post("/join", map[string]any{"eps": 5000.0})
	post("/join", map[string]any{"eps": 2e7}) // no pair is pruned: every pair consults the endpoint memo
	post("/cluster", map[string]any{"id": ids[0], "window": 20, "eps": 500.0})
	do(http.MethodDelete, "/trajectories/"+ids[1], nil)
	do(http.MethodGet, "/healthz", nil)
	do(http.MethodGet, "/stats", nil)
	do(http.MethodGet, "/metrics", nil)

	kinds := map[string]bool{}
	for _, s := range rec.spans {
		kinds[s.Name] = true
	}
	for _, name := range append([]string{"serve.discover", "store.add", "store.remove", "store.index", "store.endpoint_dists"}, resolves...) {
		if !kinds[name] {
			t.Errorf("no %s span recorded (have %v)", name, kinds)
		}
	}
}

// scrubBody drops the fields that legitimately differ between two
// servers answering the same requests: wall-clock timings and uptime.
func scrubBody(t *testing.T, path string, b []byte) string {
	t.Helper()
	if path == "/metrics" {
		var keep []string
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.Contains(line, "_seconds") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var scrub func(any)
	scrub = func(x any) {
		switch x := x.(type) {
		case map[string]any:
			for _, k := range []string{"precomputeMs", "searchMs", "uptime"} {
				delete(x, k)
			}
			for _, y := range x {
				scrub(y)
			}
		case []any:
			for _, y := range x {
				scrub(y)
			}
		}
	}
	scrub(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func testTraj(t *testing.T, ds trajmotif.DatasetName, seed int64, n int) *trajmotif.Trajectory {
	t.Helper()
	tr, err := generate(ds, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestQuantile(t *testing.T) {
	s := samples{ms(40), ms(10), ms(30), ms(20)}
	if got := s.quantile(0.5); got != 25 {
		t.Errorf("p50 = %v, want 25", got)
	}
	if got := s.quantile(0.9); got < 36.99 || got > 37.01 {
		t.Errorf("p90 = %v, want 37", got)
	}
	if got := s.perSecond(); got != 40 {
		t.Errorf("perSecond = %v, want 40", got)
	}
}

func TestGeoPerSecond(t *testing.T) {
	// geometric mean of 10 ms and 40 ms is 20 ms: 50 per second.
	if got := (samples{ms(10), ms(40)}).geoPerSecond(); got < 49.999 || got > 50.001 {
		t.Errorf("geoPerSecond = %v, want 50", got)
	}
	if got := (samples{}).geoPerSecond(); got != 0 {
		t.Errorf("geoPerSecond of no samples = %v, want 0", got)
	}
}

func TestFrechetGrid(t *testing.T) {
	// Two points each, one degree of latitude apart pairwise on the
	// equator: the coupling value is the larger leg, one degree.
	as := [][2]float64{{0, 0}, {1, 0}}
	bs := [][2]float64{{1, 0}, {2, 0}}
	grid := make([]float64, 4)
	oneDeg := 2 * 6371000 * math.Asin(math.Sin(math.Pi/360))
	if got := frechetGrid(as, bs, grid); math.Abs(got-oneDeg) > 1e-6 {
		t.Errorf("frechetGrid = %v, want %v", got, oneDeg)
	}
}

func TestCalibratorNormalize(t *testing.T) {
	c := newCalibrator()
	d := c.normalize(time.Second)
	if len(c.times) != 1 || c.times[0] <= 0 {
		t.Fatalf("kernel times = %v, want one positive time", c.times)
	}
	want := time.Duration(float64(time.Second) * calibRefMS / c.times[0])
	if d != want {
		t.Errorf("normalize(1s) = %v, want %v (kernel %.3f ms)", d, want, c.times[0])
	}
	c.run()
	if got := c.medianMS(); got != median([]float64{c.times[0], c.times[1]}) {
		t.Errorf("medianMS = %v over %v", got, c.times)
	}
}
