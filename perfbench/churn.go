package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"trajmotif"
)

// serve-churn sizes. Each client replays its own cyclic list of
// churnBatches batches; a batch is one discover target (serveN points
// of serveDataset) and churnFillers trajectories of churnFillerN points
// that are stored but never searched. The RAM cache holds about two
// targets' artifacts (a 400-point self grid is 1.28 MB), well below the
// working set of every registered target.
const (
	churnBatches    = 48
	churnFillers    = 3
	churnFillerN    = 2000
	churnCacheBytes = 3 << 20
	// Loop i cold-discovers batch i's target, promotes batch i-2's (GTM)
	// and batch i-4's (BTM) from disk, and deletes batch i-5.
	lagGTM    = 2
	lagBTM    = 4
	lagDelete = 5
)

func runServeChurn(o *options, env *runEnv) (*result, error) {
	return runServe(o, env, &churnWorkload{})
}

// churnBatch is one bulk upload and its expected answers.
type churnBatch struct {
	ts     []*trajmotif.Trajectory // ts[0] is the discover target
	ndjson []byte
	ids    []string
	// the target's cold GTM (fresh upload, built in the server) and its
	// GTM and BTM once the artifacts exist (promoted from disk)
	wantCold, wantGTM, wantBTM motifJSON
}

// churnWorkload is serve-churn: a motifserve with a disk artifact tier
// and a RAM cache below the working set, where every client loop
// uploads, cold-builds, promotes from disk and deletes.
type churnWorkload struct {
	batches [][]churnBatch // [client][batch]
}

func (w *churnWorkload) name() string   { return "serve-churn" }
func (w *churnWorkload) firstLoop() int { return lagDelete }
func (w *churnWorkload) serverFlags(dir string) []string {
	return []string{"-artifact-dir", dir, "-cache-bytes", strconv.Itoa(churnCacheBytes)}
}
func (w *churnWorkload) storeOptions(dir string) *trajmotif.StoreOptions {
	return &trajmotif.StoreOptions{ArtifactDir: dir, CacheBytes: churnCacheBytes}
}

func (w *churnWorkload) generate(seed int64) error {
	// A repeated set-up regenerates the inputs in place, keeping the
	// oracle's ids and answers (the inputs are the same).
	nc := clientCount()
	if len(w.batches) != nc {
		w.batches = make([][]churnBatch, nc)
		for ci := range w.batches {
			w.batches[ci] = make([]churnBatch, churnBatches)
		}
	}
	for ci := 0; ci < nc; ci++ {
		for b := range w.batches[ci] {
			bt := &w.batches[ci][b]
			bt.ts = nil
			role := fmt.Sprintf("churn-%d-%d", ci, b)
			for k := 0; k <= churnFillers; k++ {
				ds, n := datasets[(b+k+ci)%len(datasets)], churnFillerN
				if k == 0 {
					ds, n = serveDataset, serveN
				}
				t, err := generate(ds, subSeed(seed, role, k), n)
				if err != nil {
					return err
				}
				bt.ts = append(bt.ts, t)
			}
			var err error
			if bt.ts, bt.ndjson, err = encodeUpload(bt.ts); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracle computes each target's answers through a facade store: the
// first GTM is cold (nothing reused), the GTM and BTM after it reuse the
// artifacts as a disk promotion does.
func (w *churnWorkload) oracle() error {
	ost := trajmotif.NewStore(nil)
	var all []*churnBatch
	for ci := range w.batches {
		for b := range w.batches[ci] {
			all = append(all, &w.batches[ci][b])
		}
	}
	opt := &trajmotif.Options{Artifacts: ost, Workers: 1}
	return parallel(len(all), 2, func(k int) error {
		bt := all[k]
		var err error
		if bt.ids, err = addIDs(ost, bt.ts); err != nil {
			return err
		}
		cold, err := trajmotif.GTM(bt.ts[0], xi, tau, opt)
		if err != nil {
			return err
		}
		warm, err := trajmotif.GTM(bt.ts[0], xi, tau, opt)
		if err != nil {
			return err
		}
		b, err := trajmotif.BTM(bt.ts[0], xi, opt)
		if err != nil {
			return err
		}
		bt.wantCold, bt.wantGTM, bt.wantBTM = expectMotif(&cold.Result), expectMotif(&warm.Result), expectMotif(b)
		return nil
	})
}

// prepare runs every client's loops before the measured phase's first,
// concurrently, so the measured phase starts in steady state: batches
// registered, artifacts spilled to disk, demotions under way.
func (w *churnWorkload) prepare(cs []*client) error {
	obs := &observer{}
	if err := parallel(len(cs), len(cs), func(ci int) error {
		for i := 0; i < w.firstLoop(); i++ {
			w.loop(cs[ci], ci, i, obs)
		}
		return nil
	}); err != nil {
		return err
	}
	if _, failed := obs.counts(); failed > 0 {
		return fmt.Errorf("%d priming requests failed", failed)
	}
	return nil
}

func (w *churnWorkload) batch(ci, i int) *churnBatch {
	return &w.batches[ci][i%len(w.batches[ci])]
}

func (w *churnWorkload) loop(c *client, ci, i int, obs *observer) {
	bt := w.batch(ci, i)
	op, lat, err := c.call(http.MethodPost, "/trajectories/bulk", bt.ndjson, func(b []byte) error { return checkUpload(b, bt.ids) })
	obs.add(opRecord{kind: kindUpload, lat: lat, err: err, op: op})
	discoverOp(c, obs, bt.ids[0], kindGTM, bt.wantCold)
	if i >= lagGTM {
		p := w.batch(ci, i-lagGTM)
		discoverOp(c, obs, p.ids[0], kindGTM, p.wantGTM)
	}
	if i >= lagBTM {
		p := w.batch(ci, i-lagBTM)
		discoverOp(c, obs, p.ids[0], kindBTM, p.wantBTM)
	}
	if i >= lagDelete {
		for _, id := range w.batch(ci, i-lagDelete).ids {
			op, lat, err := c.call(http.MethodDelete, "/trajectories/"+id, nil, func(b []byte) error {
				var r struct {
					Removed bool `json:"removed"`
				}
				if err := json.Unmarshal(b, &r); err != nil || !r.Removed {
					return fmt.Errorf("delete %s not confirmed: %s", id, b)
				}
				return nil
			})
			obs.add(opRecord{kind: kindDelete, lat: lat, err: err, op: op})
		}
	}
}

// premise: the measured phase wrote and read the disk tier, evicted
// from RAM, hit no disk error, and kept the registry bounded by the
// delete lag.
func (w *churnWorkload) premise(d storeCounters, clients int) error {
	limit := clients * (lagDelete + 1) * (churnFillers + 1)
	switch {
	case d.DiskWrites == 0 || d.DiskReads == 0 || d.Evicted == 0:
		return fmt.Errorf("serve-churn wrote %d, read %d and evicted %d artifacts, want all > 0", d.DiskWrites, d.DiskReads, d.Evicted)
	case d.DiskErrors != 0:
		return fmt.Errorf("serve-churn hit %d disk errors", d.DiskErrors)
	case d.Trajectories > limit:
		return fmt.Errorf("serve-churn registry holds %d trajectories, bound %d", d.Trajectories, limit)
	}
	return nil
}
