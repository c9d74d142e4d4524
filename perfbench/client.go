package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajmotif"
)

// client is one closed-loop HTTP client of the motif server. In a traced
// run each call is an op span whose id travels in opHeader.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
	ops  *atomic.Int64
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

// routeName labels a request for spans and latency tables.
func routeName(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/trajectories/bulk":
		return "upload"
	case method == http.MethodDelete:
		return "delete"
	}
	return strings.TrimPrefix(path, "/")
}

// call sends one request and times it from the request write until the
// body has been read and check has accepted it. A non-200 status, a
// transport error or a rejected body is an error.
func (c *client) call(method, path string, body []byte, check func([]byte) error) (op int64, lat time.Duration, err error) {
	idx := -1
	if c.rec.enabled() {
		op = c.ops.Add(1)
		idx = c.rec.open("client."+routeName(method, path), op)
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return op, 0, err
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		var b []byte
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
		case check != nil:
			if err = check(b); err != nil {
				err = fmt.Errorf("%s %s: %w", method, path, err)
			}
		}
	}
	lat = time.Since(t0)
	if idx >= 0 {
		c.rec.close(idx)
	}
	return op, lat, err
}

// postJSON marshals v and posts it.
func (c *client) postJSON(path string, v any, check func([]byte) error) (int64, time.Duration, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, 0, err
	}
	return c.call(http.MethodPost, path, b, check)
}

// getJSON fetches path into v.
func (c *client) getJSON(path string, v any) error {
	_, _, err := c.call(http.MethodGet, path, nil, func(b []byte) error { return json.Unmarshal(b, v) })
	return err
}

// counters snapshots /stats plus the admission-rejection counter from
// /metrics.
func (c *client) counters() (storeCounters, error) {
	var s storeCounters
	if err := c.getJSON("/stats", &s); err != nil {
		return s, err
	}
	var rejected int64 = -1
	_, _, err := c.call(http.MethodGet, "/metrics", nil, func(b []byte) error {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "motifserve_admission_rejected_total "); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return err
				}
				rejected = int64(n)
			}
		}
		return sc.Err()
	})
	if err != nil {
		return s, err
	}
	if rejected < 0 {
		return s, fmt.Errorf("/metrics has no motifserve_admission_rejected_total")
	}
	s.Rejected = rejected
	return s, nil
}

// --- response shapes (the server's JSON) and their facade oracles ---

type spanJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

type motifStatsJSON struct {
	N                   int     `json:"n"`
	M                   int     `json:"m"`
	Xi                  int     `json:"xi"`
	Subsets             int64   `json:"subsets"`
	SubsetsProcessed    int64   `json:"subsetsProcessed"`
	SubsetsAbandoned    int64   `json:"subsetsAbandoned"`
	DPCells             int64   `json:"dpCells"`
	GridRebuildsAvoided int64   `json:"gridRebuildsAvoided"`
	PrunedByCell        int64   `json:"prunedByCell"`
	PrunedByCross       int64   `json:"prunedByCross"`
	PrunedByBand        int64   `json:"prunedByBand"`
	PeakBytes           int64   `json:"peakBytes"`
	PrecomputeMS        float64 `json:"precomputeMs"`
	SearchMS            float64 `json:"searchMs"`
}

type motifJSON struct {
	A        spanJSON       `json:"a"`
	B        spanJSON       `json:"b"`
	Distance float64        `json:"distance"`
	Stats    motifStatsJSON `json:"stats"`
}

// scrubbed drops the wall-clock fields, the only ones allowed to differ
// from the facade's answer.
func (m motifJSON) scrubbed() motifJSON {
	m.Stats.PrecomputeMS, m.Stats.SearchMS = 0, 0
	return m
}

func (m motifJSON) lib() libTimes {
	return libTimes{msDuration(m.Stats.PrecomputeMS), msDuration(m.Stats.SearchMS)}
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// expectMotif renders a facade result the way the server reports it,
// with the wall-clock fields scrubbed.
func expectMotif(r *trajmotif.Result) motifJSON {
	st := r.Stats
	return motifJSON{
		A: spanJSON{r.A.Start, r.A.End}, B: spanJSON{r.B.Start, r.B.End}, Distance: r.Distance,
		Stats: motifStatsJSON{
			N: st.N, M: st.M, Xi: st.Xi,
			Subsets: st.Subsets, SubsetsProcessed: st.SubsetsProcessed, SubsetsAbandoned: st.SubsetsAbandoned,
			DPCells: st.DPCells, GridRebuildsAvoided: st.GridRebuildsAvoided,
			PrunedByCell: st.PrunedByCell, PrunedByCross: st.PrunedByCross, PrunedByBand: st.PrunedByBand,
			PeakBytes: st.PeakBytes,
		},
	}
}

type neighborJSON struct {
	ID       string  `json:"id"`
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
}

type knnJSON struct {
	Neighbors []neighborJSON     `json:"neighbors"`
	Stats     trajmotif.KNNStats `json:"stats"`
}

type joinPairJSON struct {
	IDA      string  `json:"idA"`
	IDB      string  `json:"idB"`
	I        int     `json:"i"`
	J        int     `json:"j"`
	Distance float64 `json:"distance"`
}

type joinJSON struct {
	Pairs []joinPairJSON      `json:"pairs"`
	Stats trajmotif.JoinStats `json:"stats"`
}

type bulkJSON struct {
	Records []struct {
		Index   int    `json:"index"`
		ID      string `json:"id"`
		Created bool   `json:"created"`
		Error   string `json:"error"`
	} `json:"records"`
	Stored int    `json:"stored"`
	Failed int    `json:"failed"`
	Error  string `json:"error"`
}

// decodeEqual decodes body into a fresh value of want's type and
// compares it with want after applying scrub (which may be nil).
func decodeEqual[T any](body []byte, want T, scrub func(T) T) (T, error) {
	var got T
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("decode: %w", err)
	}
	cmp := got
	if scrub != nil {
		cmp = scrub(got)
	}
	if !reflect.DeepEqual(cmp, want) {
		return got, fmt.Errorf("answer differs from the facade's:\n got  %+v\n want %+v", cmp, want)
	}
	return got, nil
}

// checkUpload accepts a bulk response that stored exactly the expected
// ids, all newly created.
func checkUpload(body []byte, ids []string) error {
	var r bulkJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if r.Stored != len(ids) || r.Failed != 0 || r.Error != "" || len(r.Records) != len(ids) {
		return fmt.Errorf("bulk upload stored %d failed %d (error %q), want %d stored", r.Stored, r.Failed, r.Error, len(ids))
	}
	for k, rec := range r.Records {
		if rec.ID != ids[k] || !rec.Created {
			return fmt.Errorf("record %d: id %s created=%v, want new %s", k, rec.ID, rec.Created, ids[k])
		}
	}
	return nil
}

// opRecord is one measured operation.
type opRecord struct {
	kind string
	lat  time.Duration
	err  error
	// traced runs only
	op    int64
	lib   libTimes
	motif []motifJSON
	knn   *trajmotif.KNNStats
	join  *trajmotif.JoinStats
}

// observer collects the operations of a measured phase from every client.
type observer struct {
	mu       sync.Mutex
	recs     []opRecord
	failures int
}

func (o *observer) add(r opRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r.err != nil {
		o.failures++
		if o.failures <= 5 {
			fmt.Printf("perfbench: failed %s: %v\n", r.kind, r.err)
		}
	}
	o.recs = append(o.recs, r)
}

// latencies returns the latencies of successful operations of the given
// kinds.
func (o *observer) latencies(kinds ...string) samples {
	var out samples
	for _, r := range o.recs {
		if r.err == nil && slices.Contains(kinds, r.kind) {
			out = append(out, r.lat)
		}
	}
	return out
}

func (o *observer) counts() (attempted, failed int64) {
	for _, r := range o.recs {
		attempted++
		if r.err != nil {
			failed++
		}
	}
	return attempted, failed
}
