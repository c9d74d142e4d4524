package main

import (
	"math"
	"math/rand"
	"time"
)

// calibRefMS is the calibration kernel's typical time on the 2-vCPU
// reference host. paper-cold reports its times as on a host that runs
// the kernel in exactly this time.
const calibRefMS = 10.0

// calibN is the length of the calibration kernel's two sequences.
const calibN = 300

// calibrator times a fixed piece of work that shares no code with the
// program: the cold path of a motif search written here in plain Go, a
// haversine ground-distance grid between two pseudo-random 300-point
// walks and the discrete Fréchet dynamic program over it. Its inputs do
// not depend on --seed, so its time measures only the speed the host
// gives the process at that moment.
//
// The reference host switches between a fast and a slow speed: one
// unchanged BTM call (identical DP-cell count every time) took about
// 25 ms or about 41 ms, switching within a second or two, and the fast
// speed itself drifted by 20% over minutes. A timing taken right before
// the kernel mostly ran at the kernel's speed, so paper-cold divides
// every timing by the kernel run that follows it (see normalize).
type calibrator struct {
	as, bs [][2]float64
	grid   []float64
	times  []float64 // every kernel time of the run, in ms
	sink   float64
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	walk := func() [][2]float64 {
		p := make([][2]float64, calibN)
		lat, lng := 39.9, 116.4
		for k := range p {
			lat += (r.Float64() - 0.5) * 1e-3
			lng += (r.Float64() - 0.5) * 1e-3
			p[k] = [2]float64{lat, lng}
		}
		return p
	}
	return &calibrator{as: walk(), bs: walk(), grid: make([]float64, calibN*calibN)}
}

// run times one pass of the kernel and returns its time in ms.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	c.sink += frechetGrid(c.as, c.bs, c.grid)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	c.times = append(c.times, ms)
	return ms
}

// normalize runs the kernel and returns d as it would read on a host
// that runs the kernel in calibRefMS: d × calibRefMS ÷ the kernel time.
func (c *calibrator) normalize(d time.Duration) time.Duration {
	return time.Duration(float64(d) * calibRefMS / c.run())
}

// medianMS is the median kernel time of the run, in ms.
func (c *calibrator) medianMS() float64 {
	return median(append([]float64(nil), c.times...))
}

// frechetGrid fills grid with the haversine distances (in metres) of
// every point pair of as and bs, then turns it in place into the discrete
// Fréchet coupling values and returns the last one.
func frechetGrid(as, bs [][2]float64, grid []float64) float64 {
	const rad = math.Pi / 180
	m := len(bs)
	for i, a := range as {
		for j, b := range bs {
			dlat, dlng := (b[0]-a[0])*rad, (b[1]-a[1])*rad
			s1, s2 := math.Sin(dlat/2), math.Sin(dlng/2)
			h := s1*s1 + math.Cos(a[0]*rad)*math.Cos(b[0]*rad)*s2*s2
			grid[i*m+j] = 2 * 6371000 * math.Asin(math.Sqrt(h))
		}
	}
	for i := range as {
		for j := range bs {
			d := grid[i*m+j]
			switch {
			case i == 0 && j == 0:
			case i == 0:
				d = math.Max(d, grid[j-1])
			case j == 0:
				d = math.Max(d, grid[(i-1)*m])
			default:
				d = math.Max(d, math.Min(grid[(i-1)*m+j], math.Min(grid[(i-1)*m+j-1], grid[i*m+j-1])))
			}
			grid[i*m+j] = d
		}
	}
	return grid[len(grid)-1]
}
