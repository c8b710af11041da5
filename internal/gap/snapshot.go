package gap

import (
	"fmt"
	"math/bits"

	"leonardo/internal/carng"
	"leonardo/internal/engine"
	"leonardo/internal/fitness"
	"leonardo/internal/genome"
)

// Checkpointing for the behavioural GAP. A snapshot captures the full
// machine state at a generation boundary — both populations' worth of
// bits (the intermediate population is scratch and not stored), the
// cellular-automaton RNG state, the best-individual register, and all
// counters — so a restored run continues bit-identically to one that
// was never interrupted. The objective itself is not serialized (it may
// be an arbitrary Go value); Restore takes it as an argument, nil
// meaning the paper's three-rule evaluator, exactly as New does.

// SnapKind is the kind tag of a GAP snapshot header.
const SnapKind = "gap"

const snapVersion = 1

// EncodeParams writes the eight GA parameters every snapshot kind that
// rebuilds a GAP records, in their one canonical order. Callers append
// their own extras (RecordHistory, build options) after it.
func EncodeParams(e *engine.Enc, p Params) {
	e.Int(p.Layout.Steps)
	e.Int(p.Layout.Legs)
	e.Int(p.PopulationSize)
	e.F64(p.SelectionThreshold)
	e.F64(p.CrossoverThreshold)
	e.Int(p.MutationsPerGeneration)
	e.Int(p.MaxGenerations)
	e.U64(p.Seed)
}

// DecodeParams reads the parameters written by EncodeParams. Check
// d.Err before trusting the result.
func DecodeParams(d *engine.Dec) Params {
	return Params{
		Layout:                 genome.Layout{Steps: d.Int(), Legs: d.Int()},
		PopulationSize:         d.Int(),
		SelectionThreshold:     d.F64(),
		CrossoverThreshold:     d.F64(),
		MutationsPerGeneration: d.Int(),
		MaxGenerations:         d.Int(),
		Seed:                   d.U64(),
	}
}

// Snapshot serializes the complete GAP state. Call it only at a
// generation boundary (between Step calls); the engine loop guarantees
// this for observer-triggered snapshots.
func (g *GAP) Snapshot() []byte {
	e := engine.NewEnc(SnapKind, snapVersion)
	// Parameters needed to rebuild an identical machine.
	EncodeParams(e, g.p)
	e.Bool(g.p.RecordHistory)
	// Dynamic state.
	e.U64(g.rng.State())
	e.U64(g.draws)
	e.Int(g.gen)
	e.Int(g.ops.Tournaments)
	e.Int(g.ops.KeptBetter)
	e.Int(g.ops.Pairs)
	e.Int(g.ops.Crossed)
	e.Int(g.ops.Mutations)
	e.Int(g.ops.Evaluations)
	e.Bool(g.haveBest)
	e.Int(g.bestFit)
	if g.haveBest {
		e.Words(g.best.Bits.Words())
	}
	for i := range g.basis {
		e.Words(g.basis[i].Bits.Words())
		e.Int(g.fit[i])
	}
	e.Int(len(g.history))
	for _, h := range g.history {
		e.Int(h.Generation)
		e.Int(h.BestFitness)
		e.F64(h.MeanFitness)
		e.Int(h.BestEver)
	}
	return e.Bytes()
}

// Restore rebuilds a GAP from a Snapshot. obj supplies the objective
// (not serialized); nil means the paper's three-rule evaluator for the
// snapshotted layout — it must match the objective of the original run
// for the continuation to be meaningful. No fitness is re-evaluated:
// populations, scores, and the RNG stream position come back verbatim,
// so the continued run is bit-identical to an uninterrupted one.
func Restore(data []byte, obj Objective) (*GAP, error) {
	d, err := engine.NewDec(data, SnapKind)
	if err != nil {
		return nil, err
	}
	if d.Version != snapVersion {
		return nil, fmt.Errorf("gap: snapshot version %d, want %d", d.Version, snapVersion)
	}
	p := DecodeParams(d)
	p.RecordHistory = d.Bool()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("gap: snapshot parameters invalid: %w", err)
	}
	if p.MaxGenerations <= 0 {
		return nil, fmt.Errorf("gap: snapshot has generation cap %d", p.MaxGenerations)
	}
	if obj == nil {
		obj = fitness.Evaluator{Layout: p.Layout, Weights: fitness.DefaultWeights}
	}
	g, err := newShell(p, obj)
	if err != nil {
		return nil, err
	}
	g.rng.SetState(d.U64())
	g.draws = d.U64()
	g.gen = d.Int()
	g.ops = OpStats{
		Tournaments: d.Int(),
		KeptBetter:  d.Int(),
		Pairs:       d.Int(),
		Crossed:     d.Int(),
		Mutations:   d.Int(),
		Evaluations: d.Int(),
	}
	g.haveBest = d.Bool()
	g.bestFit = d.Int()
	if g.haveBest {
		bs, err := decodeBits(d, p.Layout)
		if err != nil {
			return nil, fmt.Errorf("gap: best register: %w", err)
		}
		g.best = genome.Extended{Layout: p.Layout, Bits: bs}
	}
	for i := range g.basis {
		bs, err := decodeBits(d, p.Layout)
		if err != nil {
			return nil, fmt.Errorf("gap: individual %d: %w", i, err)
		}
		g.basis[i] = genome.Extended{Layout: p.Layout, Bits: bs}
		g.fit[i] = d.Int()
	}
	nh := d.Int()
	if d.Err() == nil && nh > g.gen {
		return nil, fmt.Errorf("gap: snapshot has %d history entries for %d generations", nh, g.gen)
	}
	if nh > 0 && d.Err() == nil {
		g.history = make([]GenStats, nh)
		for i := range g.history {
			g.history[i] = GenStats{
				Generation:  d.Int(),
				BestFitness: d.Int(),
				MeanFitness: d.F64(),
				BestEver:    d.Int(),
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// newShell builds a GAP with its buffers and derived constants but no
// population or RNG activity — the skeleton Restore fills in. Kept next
// to Restore so changes to the GAP struct update both construction
// paths together.
func newShell(p Params, obj Objective) (*GAP, error) {
	g := &GAP{
		p:    p,
		obj:  obj,
		rng:  carng.NewDefault(p.Seed),
		selT: carng.Threshold8(p.SelectionThreshold),
		xovT: carng.Threshold8(p.CrossoverThreshold),
	}
	if po, ok := obj.(PackedObjective); ok && p.Layout == genome.PaperLayout {
		g.packed = po
	}
	b := p.Layout.Bits()
	g.idxBits = bits.Len(uint(p.PopulationSize - 1))
	g.pntBits = bits.Len(uint(b - 2))
	g.bitBits = bits.Len(uint(b - 1))
	g.basis = make([]genome.Extended, p.PopulationSize)
	g.inter = make([]genome.Extended, p.PopulationSize)
	g.fit = make([]int, p.PopulationSize)
	for i := range g.inter {
		g.inter[i] = genome.NewExtended(p.Layout)
	}
	return g, nil
}

// decodeBits reads one length-prefixed genome bit vector and validates
// it against the layout.
func decodeBits(d *engine.Dec, ly genome.Layout) (genome.BitString, error) {
	ws := d.Words()
	if err := d.Err(); err != nil {
		return genome.BitString{}, err
	}
	n := ly.Bits()
	if want := (n + 63) / 64; len(ws) != want {
		return genome.BitString{}, fmt.Errorf("%d words for a %d-bit genome", len(ws), n)
	}
	return genome.BitStringFromWords(ws, n), nil
}
