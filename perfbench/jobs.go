package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"trajmotif"
)

// Shared sizes of every workload's motif searches: ξ (minimum leg
// length) and τ (GTM's initial group size, the paper's default).
const (
	xi  = 32
	tau = trajmotif.DefaultTau
)

// datasets are the paper's three evaluation datasets (§6.1), in order.
var datasets = []trajmotif.DatasetName{trajmotif.GeoLife, trajmotif.Truck, trajmotif.Baboon}

// subSeed derives the generator seed of one input from the run's seed,
// the input's role and its position, so every input is a pure function
// of --seed and no two inputs share a generator seed.
func subSeed(seed int64, role string, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, role, k)
	return int64(h.Sum64() >> 1)
}

// generate synthesizes one trajectory of n points.
func generate(ds trajmotif.DatasetName, seed int64, n int) (*trajmotif.Trajectory, error) {
	return trajmotif.GenerateDataset(ds, trajmotif.DatasetConfig{Seed: seed, N: n})
}

// generatePair synthesizes two trajectories sharing route geography.
func generatePair(ds trajmotif.DatasetName, seed int64, n int) (*trajmotif.Trajectory, *trajmotif.Trajectory, error) {
	return trajmotif.GenerateDatasetPair(ds, trajmotif.DatasetConfig{Seed: seed, N: n})
}

// rotation returns 0..n-1 rotated by a seed-derived offset: the order a
// client walks a target list in, so different seeds and clients start
// at different targets while every target is visited equally often.
func rotation(seed int64, role string, n int) []int {
	off := int(subSeed(seed, role, 0) % int64(n))
	out := make([]int, n)
	for k := range out {
		out[k] = (off + k) % n
	}
	return out
}

// encodeUpload renders ts as the NDJSON body of a bulk upload and
// returns the trajectories the server will decode from it, which are
// the inputs the oracle must use (the wire format rounds timestamps).
func encodeUpload(ts []*trajmotif.Trajectory) ([]*trajmotif.Trajectory, []byte, error) {
	var buf bytes.Buffer
	if err := trajmotif.WriteNDJSON(&buf, ts...); err != nil {
		return nil, nil, err
	}
	body := buf.Bytes()
	sc := trajmotif.NewNDJSONScanner(bytes.NewReader(body))
	var out []*trajmotif.Trajectory
	for {
		t, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		out = append(out, t)
	}
	if len(out) != len(ts) {
		return nil, nil, fmt.Errorf("upload body decodes to %d trajectories, want %d", len(out), len(ts))
	}
	return out, body, nil
}
