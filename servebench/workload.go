package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"disc/internal/datasets"
	"disc/internal/model"
)

// workload is one traffic mix: a dataset analog, the stream's clustering
// and window configuration, how the writer batches points, and how fast
// the open-loop reader queries.
type workload struct {
	name    string
	dataset string // datasets.ByName id
	cfg     model.Config
	window  int
	stride  int
	batch   int     // points per timed-phase POST; divides stride
	readHz  float64 // reader GETs per second (open loop)
	// maxPtsPerSec sizes the pre-encoded input: the timed phase has
	// seconds*maxPtsPerSec points ready, about twice the fastest rate
	// measured on a 2-CPU host. A program that outruns it stops the writer
	// early; throughput is then taken over the writer's active time and
	// the run says the input ran out. (Input generation is part of
	// setup_s, so oversizing it would inflate set-up.)
	maxPtsPerSec float64
	// tailStrides is how many strides are ingested after the benchmark's
	// checkpoint; recovery replays exactly these from the WAL.
	tailStrides int
	// predicted names the layer the traced run expects to dominate, and
	// which ack class it decomposes.
	predicted   string
	predictAcks string // "stride" or "plain"
}

// warmupStrides run between the window fill and the timed phase so pools
// and caches have grown before anything is timed.
const warmupStrides = 5

var workloads = []workload{
	{
		name:    "dtg-1pct",
		dataset: "dtg", cfg: model.Config{Dims: 2, Eps: 0.002, MinPts: 40},
		window: 20000, stride: 200, batch: 100, readHz: 250,
		maxPtsPerSec: 10000, tailStrides: 40,
		predicted: "core.advance", predictAcks: "stride",
	},
	{
		name:    "covid-100k",
		dataset: "covid", cfg: model.Config{Dims: 2, Eps: 1.2, MinPts: 5},
		window: 100000, stride: 100, batch: 50, readHz: 250,
		maxPtsPerSec: 3000, tailStrides: 10,
		predicted: "server.publish", predictAcks: "stride",
	},
	{
		name:    "small-batch",
		dataset: "maze", cfg: model.Config{Dims: 2, Eps: 0.6, MinPts: 4},
		window: 10000, stride: 500, batch: 20, readHz: 400,
		maxPtsPerSec: 50000, tailStrides: 40,
		predicted: "request path", predictAcks: "plain",
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// wirePoint is the ingest wire form of one point.
type wirePoint struct {
	ID     int64     `json:"id"`
	Time   int64     `json:"time"`
	Coords []float64 `json:"coords"`
}

// inputs is everything a run sends, generated from the seed and encoded
// before the server starts.
type inputs struct {
	points []model.Point // the whole stream in arrival order
	fill   []body        // the initial window
	stream []body        // everything after it, batch points each
}

// body is one encoded POST /ingest request: points[start:start+n].
type body struct {
	start, n int
	json     []byte
}

// fillBatch is the POST size used to fill the window; a multiple of the
// stride so every fill POST ends on a stride boundary.
func (w workload) fillBatch() int {
	b := w.stride * int(math.Ceil(2000/float64(w.stride)))
	if b > w.window {
		b = w.window
	}
	return b
}

// streamPoints is how many points a run with the given timed length needs.
func (w workload) streamPoints(seconds int) int {
	timed := int(math.Ceil(float64(seconds) * w.maxPtsPerSec))
	timed = (timed/w.stride + 1) * w.stride
	return w.window + warmupStrides*w.stride + timed + w.tailStrides*w.stride
}

// worldSeed fixes each workload's synthetic world: the cities, roads or
// walkers its generator places. A run's --seed picks where in that
// world's stream the run starts, so different seeds give different inputs
// drawn from one workload rather than different workloads.
const worldSeed = 42

// startOffset maps a seed to a start position within the first window of
// the world's stream (splitmix64 spreads nearby seeds). The generators
// drift slowly (DTG's congested vehicles crawl, Maze's trails spread), so
// the range is kept to one window: every seed runs the same stretch of
// the world, shifted.
func startOffset(seed int64, window int) int {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(window))
}

func generate(w workload, seed int64, seconds int) (*inputs, error) {
	n := w.streamPoints(seconds)
	off := startOffset(seed, w.window)
	ds, err := datasets.ByName(w.dataset, off+n, worldSeed)
	if err != nil {
		return nil, err
	}
	if ds.Dims != w.cfg.Dims {
		return nil, fmt.Errorf("dataset %s has %d dims, workload wants %d", w.dataset, ds.Dims, w.cfg.Dims)
	}
	// Renumber from the start position: ids and times are 0..n-1 in
	// arrival order, which the gate and the reader rely on to know which
	// ids are resident.
	pts := append([]model.Point(nil), ds.Points[off:]...)
	for i := range pts {
		pts[i].ID, pts[i].Time = int64(i), int64(i)
	}
	in := &inputs{points: pts}
	fb := w.fillBatch()
	for s := 0; s < w.window; s += fb {
		b, err := encodeBody(pts, s, min(fb, w.window-s), w.cfg.Dims)
		if err != nil {
			return nil, err
		}
		in.fill = append(in.fill, b)
	}
	for s := w.window; s+w.batch <= n; s += w.batch {
		b, err := encodeBody(pts, s, w.batch, w.cfg.Dims)
		if err != nil {
			return nil, err
		}
		in.stream = append(in.stream, b)
	}
	return in, nil
}

func encodeBody(pts []model.Point, start, n, dims int) (body, error) {
	wire := make([]wirePoint, n)
	for i := range wire {
		p := pts[start+i]
		wire[i] = wirePoint{ID: p.ID, Time: p.Time, Coords: p.Pos[:dims]}
	}
	b, err := json.Marshal(wire)
	if err != nil {
		return body{}, fmt.Errorf("encoding batch at %d: %w", start, err)
	}
	return body{start: start, n: n, json: b}, nil
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
