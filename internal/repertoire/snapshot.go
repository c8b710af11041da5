package repertoire

import (
	"fmt"

	"leonardo/internal/engine"
	"leonardo/internal/fitness"
	"leonardo/internal/genome"
)

// Checkpointing for the repertoire. A snapshot is the resolved
// parameters, the random stream (one splitmix64 word plus the draw
// counter), the work counters, and the grid: one presence flag per
// cell in canonical cell order, each occupied cell followed by its
// packed genome, fitness, measured descriptors, and curiosity counter.
// Snapshots are only valid at batch boundaries, which the engine loop
// guarantees between Steps; a restored run continues bit-identically.

// SnapKind is the kind tag of a repertoire snapshot header.
const SnapKind = "repertoire"

const snapVersion = 1

// Snapshot serializes the complete run state.
func (r *Repertoire) Snapshot() []byte {
	e := engine.NewEnc(SnapKind, snapVersion)
	// Parameters (defaults resolved at construction).
	e.Int(r.p.Headings)
	e.Int(r.p.Strides)
	e.F64(r.p.StrideMaxMM)
	e.Int(r.p.Cycles)
	e.Int(r.p.Batch)
	e.Int(r.p.MutationBits)
	e.Int(r.p.MaxEvaluations)
	e.U64(r.p.Seed)
	// Random stream.
	e.U64(r.rng.state)
	e.U64(r.rng.draws)
	// Work counters.
	e.Int(r.batches)
	e.Int(r.evals)
	e.Int(r.adds)
	e.Int(r.improves)
	// Grid, in canonical cell order.
	for i := range r.cells {
		e.Bool(r.filled[i])
		if !r.filled[i] {
			continue
		}
		el := r.cells[i]
		e.U64(uint64(el.Genome))
		e.Int(el.Fitness)
		e.F64(el.HeadingRad)
		e.F64(el.StrideMM)
		e.Int(el.Curiosity)
	}
	return e.Bytes()
}

// Restore rebuilds a run from a Snapshot. The restored run continues
// bit-identically to one that was never interrupted.
func Restore(data []byte) (*Repertoire, error) {
	d, err := engine.NewDec(data, SnapKind)
	if err != nil {
		return nil, err
	}
	if d.Version != snapVersion {
		return nil, fmt.Errorf("repertoire: snapshot version %d, want %d", d.Version, snapVersion)
	}
	p := Params{
		Headings:       d.Int(),
		Strides:        d.Int(),
		StrideMaxMM:    d.F64(),
		Cycles:         d.Int(),
		Batch:          d.Int(),
		MutationBits:   d.Int(),
		MaxEvaluations: d.Int(),
		Seed:           d.U64(),
	}
	st := rng{state: d.U64(), draws: d.U64()}
	batches := d.Int()
	evals := d.Int()
	adds := d.Int()
	improves := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("repertoire: snapshot parameters invalid: %w", err)
	}
	if p.Cycles <= 0 || p.Batch <= 0 || p.MutationBits <= 0 || p.MaxEvaluations <= 0 {
		return nil, fmt.Errorf("repertoire: snapshot has unresolved defaults in %+v", p)
	}
	if batches < 0 || evals < 0 || adds < 0 || improves < 0 {
		return nil, fmt.Errorf("repertoire: snapshot counters (%d batches, %d evals, %d adds, %d improves) negative",
			batches, evals, adds, improves)
	}
	n := p.Grid().Cells()
	r := &Repertoire{
		p:        p,
		eval:     fitness.New(),
		rng:      st,
		cells:    make([]Elite, n),
		filled:   make([]bool, n),
		batches:  batches,
		evals:    evals,
		adds:     adds,
		improves: improves,
		plan:     make([]candidate, p.Batch),
		results:  make([]outcome, p.Batch),
	}
	for i := 0; i < n; i++ {
		if !d.Bool() {
			continue
		}
		el := Elite{
			Genome:     genome.Genome(d.U64()),
			Fitness:    d.Int(),
			HeadingRad: d.F64(),
			StrideMM:   d.F64(),
			Curiosity:  d.Int(),
		}
		if d.Err() != nil {
			break
		}
		if el.Genome&^genome.Mask != 0 {
			return nil, fmt.Errorf("repertoire: cell %d genome %#x has bits beyond the 36-bit layout", i, uint64(el.Genome))
		}
		if el.Curiosity < 0 {
			return nil, fmt.Errorf("repertoire: cell %d curiosity %d is negative", i, el.Curiosity)
		}
		r.cells[i] = el
		r.filled[i] = true
		r.nfill++
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}
