package main

import (
	"fmt"

	"trajmotif"
	"trajmotif/internal/core"
)

// serve-warm and serve-churn sizes. Every /discover target has serveN
// points; every /topk target has topkN and runs at topkXi, the same ξ/n
// ratio; the knn/join corpus has warmCorpus trajectories of corpusN
// points.
const (
	serveN       = 400
	warmDiscover = 72
	topkN        = 200
	topkXi       = 16
	warmTopK     = 24
	topkK        = 3
	warmCorpus   = 64
	corpusN      = 200
	knnK         = 3
	joinEps      = 500.0 // meters
)

// serveDataset is the dataset of every serve-* search target. GeoLife's
// per-trajectory search cost varies least (BTM and GTM time CV about 0.3
// over 200 trajectories at n=400, up to 0.6 for truck and baboon), so
// several dozen seed-drawn targets give a steady mix; paper-cold covers
// all three.
// TopK's later rounds have a heavier tail: k=3 calls at n=300-400 take
// 0.1-5.5 s on truck and baboon and up to 10 s on 1 in 40 geolife
// trajectories, long enough to push a queued request past admission's
// 5 s wait. At n=200, ξ=16, 240 geolife seeds stay within 23-82 ms.
const serveDataset = trajmotif.GeoLife

func runServeWarm(o *options, env *runEnv) (*result, error) {
	return runServe(o, env, &warmWorkload{})
}

// warmWorkload is serve-warm: a default motifserve whose every artifact
// is resident, so each request is a RAM hit and dmatrix and bounds do
// no work. Each client loop is 2x /discover (GTM), 1x /discover
// algo=btm, 1x /topk, 2x /knn and 1x /join.
type warmWorkload struct {
	seed   int64
	disc   []*trajmotif.Trajectory
	topk   []*trajmotif.Trajectory
	corpus []*trajmotif.Trajectory
	bulk   []byte // NDJSON of disc, topk and corpus, in that order

	// set by oracle
	discIDs, topkIDs, corpusIDs []string
	wantGTM, wantBTM            []motifJSON
	wantTopK                    [][]motifJSON
	wantKNN                     []knnJSON
	wantJoin                    joinJSON
}

func (w *warmWorkload) name() string                { return "serve-warm" }
func (w *warmWorkload) firstLoop() int              { return 0 }
func (w *warmWorkload) serverFlags(string) []string { return nil }
func (w *warmWorkload) storeOptions(string) *trajmotif.StoreOptions {
	return &trajmotif.StoreOptions{}
}

func (w *warmWorkload) generate(seed int64) error {
	w.seed = seed
	w.disc, w.topk, w.corpus = nil, nil, nil
	for k := 0; k < warmDiscover; k++ {
		t, err := generate(serveDataset, subSeed(seed, "warm-discover", k), serveN)
		if err != nil {
			return err
		}
		w.disc = append(w.disc, t)
	}
	for k := 0; k < warmTopK; k++ {
		t, err := generate(serveDataset, subSeed(seed, "warm-topk", k), topkN)
		if err != nil {
			return err
		}
		w.topk = append(w.topk, t)
	}
	for k := 0; k < warmCorpus; k++ {
		t, err := generate(datasets[k%len(datasets)], subSeed(seed, "warm-corpus", k), corpusN)
		if err != nil {
			return err
		}
		w.corpus = append(w.corpus, t)
	}
	all, body, err := encodeUpload(append(append(append([]*trajmotif.Trajectory{}, w.disc...), w.topk...), w.corpus...))
	if err != nil {
		return err
	}
	nd, nk := len(w.disc), len(w.topk)
	w.disc, w.topk, w.corpus, w.bulk = all[:nd], all[nd:nd+nk], all[nd+nk:], body
	return nil
}

// addIDs registers ts in the oracle store and returns their ids, which
// are content hashes and so equal the server's.
func addIDs(st *trajmotif.Store, ts []*trajmotif.Trajectory) ([]string, error) {
	ids := make([]string, len(ts))
	for k, t := range ts {
		id, _, err := st.Add(t)
		if err != nil {
			return nil, err
		}
		ids[k] = string(id)
	}
	return ids, nil
}

// warmArtifacts makes st hold t's self grid and bound tables, as the
// server's warm-up does, so the facade calls that follow report the
// same reuse a warm server does.
func warmArtifacts(st *trajmotif.Store, t *trajmotif.Trajectory, xi int) {
	st.Artifacts(core.ArtifactRequest{
		A: t.Points, B: t.Points, Self: true, Xi: xi, WithBounds: true, Dist: st.Dist(), Workers: 1,
	})
}

// oracle computes every expected answer through the facade, over a
// warm facade store, on two goroutines with Workers=1 (results and
// effort counters are identical for every worker count).
func (w *warmWorkload) oracle() error {
	ost := trajmotif.NewStore(nil)
	var err error
	if w.discIDs, err = addIDs(ost, w.disc); err != nil {
		return err
	}
	if w.topkIDs, err = addIDs(ost, w.topk); err != nil {
		return err
	}
	if w.corpusIDs, err = addIDs(ost, w.corpus); err != nil {
		return err
	}
	opt := &trajmotif.Options{Artifacts: ost, Workers: 1}
	w.wantGTM = make([]motifJSON, len(w.disc))
	w.wantBTM = make([]motifJSON, len(w.disc))
	if err := parallel(len(w.disc), 2, func(k int) error {
		warmArtifacts(ost, w.disc[k], xi)
		g, err := trajmotif.GTM(w.disc[k], xi, tau, opt)
		if err != nil {
			return err
		}
		b, err := trajmotif.BTM(w.disc[k], xi, opt)
		if err != nil {
			return err
		}
		w.wantGTM[k], w.wantBTM[k] = expectMotif(&g.Result), expectMotif(b)
		return nil
	}); err != nil {
		return err
	}
	w.wantTopK = make([][]motifJSON, len(w.topk))
	if err := parallel(len(w.topk), 2, func(k int) error {
		warmArtifacts(ost, w.topk[k], topkXi)
		rs, err := trajmotif.TopK(w.topk[k], topkXi, topkK, opt)
		if err != nil {
			return err
		}
		for r := range rs {
			w.wantTopK[k] = append(w.wantTopK[k], expectMotif(&rs[r]))
		}
		return nil
	}); err != nil {
		return err
	}
	w.wantKNN = make([]knnJSON, len(w.corpus))
	if err := parallel(len(w.corpus), 2, func(q int) error {
		others, ids := w.knnDataset(q)
		ix, err := trajmotif.BuildSpatialIndex(others, nil)
		if err != nil {
			return err
		}
		nbrs, st, err := trajmotif.NearestTrajectories(w.corpus[q], others, knnK, &trajmotif.KNNOptions{Index: ix})
		if err != nil {
			return err
		}
		want := knnJSON{Neighbors: make([]neighborJSON, len(nbrs)), Stats: st}
		for k, nb := range nbrs {
			want.Neighbors[k] = neighborJSON{ID: ids[nb.Index], Index: nb.Index, Distance: nb.Distance}
		}
		w.wantKNN[q] = want
		return nil
	}); err != nil {
		return err
	}
	ix, err := trajmotif.BuildSpatialIndex(w.corpus, nil)
	if err != nil {
		return err
	}
	pairs, st, err := trajmotif.SimilarityJoin(w.corpus, joinEps, &trajmotif.JoinOptions{Index: ix, Projected: true})
	if err != nil {
		return err
	}
	w.wantJoin = joinJSON{Pairs: make([]joinPairJSON, len(pairs)), Stats: st}
	for k, p := range pairs {
		w.wantJoin.Pairs[k] = joinPairJSON{IDA: w.corpusIDs[p.I], IDB: w.corpusIDs[p.J], I: p.I, J: p.J, Distance: p.Distance}
	}
	return nil
}

// knnDataset is the corpus without query q, and its ids: the explicit
// dataset of a /knn request for q.
func (w *warmWorkload) knnDataset(q int) ([]*trajmotif.Trajectory, []string) {
	var ts []*trajmotif.Trajectory
	var ids []string
	for k, t := range w.corpus {
		if k != q {
			ts = append(ts, t)
			ids = append(ids, w.corpusIDs[k])
		}
	}
	return ts, ids
}

// prepare uploads everything in one bulk request, then makes every
// artifact resident with one /discover per target (Workers=1, spread
// over the clients) and one /knn and /join, whose memos warm too.
func (w *warmWorkload) prepare(cs []*client) error {
	ids := append(append(append([]string{}, w.discIDs...), w.topkIDs...), w.corpusIDs...)
	if _, _, err := cs[0].call("POST", "/trajectories/bulk", w.bulk, func(b []byte) error { return checkUpload(b, ids) }); err != nil {
		return err
	}
	type warmup struct {
		id string
		xi int
	}
	var targets []warmup
	for _, id := range w.discIDs {
		targets = append(targets, warmup{id, xi})
	}
	for _, id := range w.topkIDs {
		targets = append(targets, warmup{id, topkXi})
	}
	if err := parallel(len(targets), len(cs), func(k int) error {
		body := map[string]any{"id": targets[k].id, "xi": targets[k].xi, "workers": 1}
		_, _, err := cs[k%len(cs)].postJSON("/discover", body, nil)
		return err
	}); err != nil {
		return err
	}
	obs := &observer{}
	w.knnOp(cs[0], obs, 0)
	w.joinOp(cs[0], obs)
	if _, failed := obs.counts(); failed > 0 {
		return fmt.Errorf("%d warm-up requests failed", failed)
	}
	return nil
}

func (w *warmWorkload) loop(c *client, ci, i int, obs *observer) {
	nd, nk, nq := len(w.disc), len(w.topk), len(w.corpus)
	gtm := rotation(w.seed, fmt.Sprintf("warm-gtm-%d", ci), nd)
	btm := rotation(w.seed, fmt.Sprintf("warm-btm-%d", ci), nd)
	topk := rotation(w.seed, fmt.Sprintf("warm-topk-%d", ci), nk)
	knn := rotation(w.seed, fmt.Sprintf("warm-knn-%d", ci), nq)
	for _, k := range []int{gtm[(2*i)%nd], gtm[(2*i+1)%nd]} {
		discoverOp(c, obs, w.discIDs[k], kindGTM, w.wantGTM[k])
	}
	k := btm[i%nd]
	discoverOp(c, obs, w.discIDs[k], kindBTM, w.wantBTM[k])
	w.topkOp(c, obs, topk[i%nk])
	w.knnOp(c, obs, knn[(2*i)%nq])
	w.knnOp(c, obs, knn[(2*i+1)%nq])
	w.joinOp(c, obs)
}

// discoverOp runs one /discover (GTM by default, or BTM) and checks it
// against the facade's answer.
func discoverOp(c *client, obs *observer, id, kind string, want motifJSON) {
	body := map[string]any{"id": id, "xi": xi}
	if kind == kindBTM {
		body["algo"] = "btm"
	}
	var got motifJSON
	op, lat, err := c.postJSON("/discover", body, func(b []byte) (err error) {
		got, err = decodeEqual(b, want, motifJSON.scrubbed)
		return err
	})
	obs.add(opRecord{kind: kind, lat: lat, err: err, op: op, lib: got.lib(), motif: []motifJSON{got}})
}

func (w *warmWorkload) topkOp(c *client, obs *observer, k int) {
	var got []motifJSON
	op, lat, err := c.postJSON("/topk", map[string]any{"id": w.topkIDs[k], "xi": topkXi, "k": topkK}, func(b []byte) (err error) {
		got, err = decodeEqual(b, w.wantTopK[k], func(ms []motifJSON) []motifJSON {
			out := make([]motifJSON, len(ms))
			for r, m := range ms {
				out[r] = m.scrubbed()
			}
			return out
		})
		return err
	})
	var lib libTimes
	for r, m := range got {
		if r == 0 {
			lib.precompute = msDuration(m.Stats.PrecomputeMS)
		}
		lib.search += msDuration(m.Stats.SearchMS)
	}
	obs.add(opRecord{kind: kindTopK, lat: lat, err: err, op: op, lib: lib, motif: got})
}

func (w *warmWorkload) knnOp(c *client, obs *observer, q int) {
	_, ids := w.knnDataset(q)
	var got knnJSON
	op, lat, err := c.postJSON("/knn", map[string]any{"query": w.corpusIDs[q], "ids": ids, "k": knnK}, func(b []byte) (err error) {
		got, err = decodeEqual(b, w.wantKNN[q], nil)
		return err
	})
	obs.add(opRecord{kind: kindKNN, lat: lat, err: err, op: op, knn: &got.Stats})
}

func (w *warmWorkload) joinOp(c *client, obs *observer) {
	var got joinJSON
	op, lat, err := c.postJSON("/join", map[string]any{"ids": w.corpusIDs, "eps": joinEps}, func(b []byte) (err error) {
		got, err = decodeEqual(b, w.wantJoin, nil)
		return err
	})
	obs.add(opRecord{kind: kindJoin, lat: lat, err: err, op: op, join: &got.Stats})
}

// premise: a warm run builds and evicts nothing.
func (w *warmWorkload) premise(d storeCounters, _ int) error {
	if d.Built != 0 || d.Evicted != 0 {
		return fmt.Errorf("serve-warm built %d and evicted %d artifacts during the measured phase, want 0 and 0", d.Built, d.Evicted)
	}
	return nil
}
