package main

import (
	"math"
	"strconv"
	"time"

	"leonardo"
	"leonardo/internal/repertoire"
)

// Everything a workload sends is derived here from the workload seed;
// the daemon only ever sees the generated specs and queries.

// rng is a splitmix64 stream: tiny, seedable, and identical on every
// platform, so a seed names the same inputs everywhere.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// below returns a uniform int in [0, n).
func (r *rng) below(n int) int { return int(r.next() % uint64(n)) }

// Streams keep the independent input families of one seed apart.
const (
	streamSpecs = iota + 1
	streamPoints
	streamSchedule
	streamLadder // + rung index
	streamWarmup = streamLadder + 64
)

// Run kinds as the benchmark names them in metric names, and the
// spec kind leonardod takes for each ("circuit" is the gate-level
// KindCircuit, whose wire value is "gapcirc").
var kinds = []string{"repertoire", "gap", "lanepack", "circuit"}

// Spec sizes. Each kind's work is fixed, so its run time varies little
// with the seed; every kind takes ~0.1-0.4 s in-process on one core.
const (
	repGrid        = "16x8"
	repBatch       = 64
	repEvaluations = 16000 // 250 steps: five checkpoints at the default stride
	gapSteps       = 7     // the wide layout: no early convergence, fixed 2000 generations
	gapGenerations = 2000
	lpIslands      = 8
	lpGenerations  = 20
	circuitLanes   = 8
	circuitGens    = 30
)

// specFor builds the seeded spec of one kind. Every run steps on one
// thread (Workers 1; gap and circuit runs always do), so the daemon's
// two worker slots are its whole parallelism and a run's time does
// not hinge on whether a second CPU happens to be free.
func specFor(kind string, seed uint64) leonardo.RunSpec {
	switch kind {
	case "repertoire":
		return leonardo.RunSpec{Kind: leonardo.KindRepertoire, Seed: seed, Grid: repGrid, Batch: repBatch, Evaluations: repEvaluations, Workers: 1}
	case "gap":
		return leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: seed, Steps: gapSteps, MaxGenerations: gapGenerations}
	case "lanepack":
		return leonardo.RunSpec{Kind: leonardo.KindLanePack, Seed: seed, Islands: lpIslands, MigrateEvery: 5, MaxGenerations: lpGenerations, Workers: 1}
	case "circuit":
		seeds := make([]uint64, circuitLanes)
		for i := range seeds {
			seeds[i] = seed + uint64(i)
		}
		return leonardo.RunSpec{Kind: leonardo.KindCircuit, Seed: seed, Seeds: seeds, Generations: circuitGens}
	}
	panic("leobench: unknown kind " + kind)
}

// kindOf maps a spec back to the benchmark's kind name.
func kindOf(s leonardo.RunSpec) string {
	if s.Kind == leonardo.KindCircuit {
		return "circuit"
	}
	return s.Kind
}

// specMix returns n specs: consecutive blocks of four hold one spec of
// each kind in a seeded order, so every prefix is close to an even mix.
func specMix(seed uint64, n int) []leonardo.RunSpec {
	r := newRNG(seed, streamSpecs)
	out := make([]leonardo.RunSpec, 0, n)
	for len(out) < n {
		order := append([]string(nil), kinds...)
		for i := len(order) - 1; i > 0; i-- {
			j := r.below(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, k := range order {
			if len(out) < n {
				out = append(out, specFor(k, r.next()>>1))
			}
		}
	}
	return out
}

// repSpecs returns n seeded repertoire specs.
func repSpecs(seed uint64, n int) []leonardo.RunSpec {
	r := newRNG(seed, streamSpecs)
	out := make([]leonardo.RunSpec, n)
	for i := range out {
		out[i] = specFor("repertoire", r.next()>>1)
	}
	return out
}

// point is one gait query: a descriptor pair strictly inside a cell.
type point struct {
	Heading, Stride float64
}

// query renders the GET /v1/gaits path of a point on a run. The
// shortest round-tripping float format makes the daemon parse back
// exactly the values the oracle renders.
func (p point) query(run string) string {
	return "/v1/gaits?run=" + run +
		"&heading=" + strconv.FormatFloat(p.Heading, 'g', -1, 64) +
		"&stride=" + strconv.FormatFloat(p.Stride, 'g', -1, 64)
}

// pointIn draws a point uniformly from the middle 90% of cell (h, s) on
// both axes, so binning does real work and no point sits on a cell
// centre or an edge.
func pointIn(g repertoire.Grid, h, s int, r *rng) point {
	hw := 2 * math.Pi / float64(g.Headings)
	sw := g.StrideMaxMM / float64(g.Strides)
	return point{
		Heading: -math.Pi + (float64(h)+0.05+0.9*r.float())*hw,
		Stride:  (float64(s) + 0.05 + 0.9*r.float()) * sw,
	}
}

// cellPoints draws n points spread over the given cells (flattened
// heading-major indices), each inside its cell.
func cellPoints(g repertoire.Grid, cells []int, n int, r *rng) []point {
	out := make([]point, n)
	for i := range out {
		c := cells[r.below(len(cells))]
		out[i] = pointIn(g, c/g.Strides, c%g.Strides, r)
	}
	return out
}

// allCells lists every cell of g.
func allCells(g repertoire.Grid) []int {
	cells := make([]int, g.Cells())
	for i := range cells {
		cells[i] = i
	}
	return cells
}

// repGridOf is the descriptor grid every benchmark repertoire run uses.
func repGridOf() repertoire.Grid {
	h, s, err := leonardo.ParseGrid(repGrid)
	if err != nil {
		panic(err)
	}
	return repertoire.Grid{Headings: h, Strides: s, StrideMaxMM: repertoire.DefaultStrideMaxMM}
}

// schedule returns the due offsets of an open-loop Poisson arrival
// process at rate per second over dur.
func schedule(seed uint64, stream uint64, rate float64, dur time.Duration) []time.Duration {
	r := newRNG(seed, stream)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
