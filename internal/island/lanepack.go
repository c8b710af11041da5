package island

import (
	"context"
	"fmt"

	"leonardo/internal/engine"
	"leonardo/internal/gapcirc"
	"leonardo/internal/genome"
	"leonardo/internal/logic"
)

// Lane-packed archipelago: every deme is one SWAR lane of a single
// gate-level GAP circuit (gapcirc.LaneDemes), so advancing the
// archipelago one epoch costs one circuit pass per clock cycle for all
// demes together instead of one pass per deme. The island-model
// semantics are untouched — the lane views satisfy the same Deme
// contract as behavioural GAPs, so ring migration, latch-then-commit,
// epoch barriers, and observers all run unchanged over lanes; only the
// stepping substrate differs.
//
// The equivalence is proved differentially (lanepack_test.go): a
// lane-packed archipelago replays, deme by deme and bit for bit, an
// archipelago of single-lane groups over the same seeds — including
// across a snapshot/resume boundary.

// MaxLaneDemes is the deme capacity of one lane-packed archipelago:
// the simulator's SWAR width.
const MaxLaneDemes = logic.Lanes

// LanePack is an archipelago whose demes are the lanes of one shared
// gate-level simulator. It implements engine.Stepper exactly like
// Archipelago (one Step = one epoch) and adds a snapshot format that
// stores the shared simulator once instead of once per deme.
type LanePack struct {
	arch  *Archipelago
	group *gapcirc.LaneDemes
}

// NewLanePack builds a lane-packed archipelago of p.Demes gate-level
// demes, deme i seeded with DemeSeed(p.Base.Seed, i) — the same
// derivation as New, so a lane-packed run is comparable
// deme-for-deme with a scalar run over the same master seed. p.Demes
// must not exceed MaxLaneDemes, and p.Base.Objective must be nil: the
// fitness function is baked into the circuit, which implements the
// paper's three-rule evaluator only.
func NewLanePack(p Params) (*LanePack, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Demes > MaxLaneDemes {
		return nil, fmt.Errorf("island: %d demes exceed the %d simulator lanes (the lane-packed backend hosts one deme per lane)",
			p.Demes, MaxLaneDemes)
	}
	if p.Base.Objective != nil {
		return nil, fmt.Errorf("island: lane-packed demes evaluate fitness in circuit logic; custom objectives need the behavioural backend")
	}
	p = p.withDefaults()
	seeds := make([]uint64, p.Demes)
	for i := range seeds {
		seeds[i] = DemeSeed(p.Base.Seed, i)
	}
	bp := p.Base
	bp.RecordHistory = false
	group, err := gapcirc.NewLaneDemes(bp, gapcirc.BuildOpts{}, seeds)
	if err != nil {
		return nil, err
	}
	return newLanePack(p, group, 0, 0)
}

// newLanePack wraps an existing lane-deme group in the archipelago
// machinery with the given migration cursor.
func newLanePack(p Params, group *gapcirc.LaneDemes, epochs, migrants int) (*LanePack, error) {
	views := group.Demes()
	demes := make([]Deme, len(views))
	for i, v := range views {
		demes[i] = v
	}
	arch, err := NewWithDemes(p, demes)
	if err != nil {
		return nil, err
	}
	arch.epochs = epochs
	arch.migrants = migrants
	return &LanePack{arch: arch, group: group}, nil
}

// Archipelago exposes the underlying archipelago (observers, Result,
// per-deme inspection). Its demes are *gapcirc.LaneDeme views; do not
// snapshot it directly — the per-deme sub-snapshot format would store
// the shared simulator once per lane. Use LanePack.Snapshot.
func (lp *LanePack) Archipelago() *Archipelago { return lp.arch }

// Group exposes the shared lane-deme group (for inspection; mutating
// it mid-run breaks replay).
func (lp *LanePack) Group() *gapcirc.LaneDemes { return lp.group }

// Params returns the archipelago configuration (defaults resolved).
func (lp *LanePack) Params() Params { return lp.arch.Params() }

// SetWorkers re-chooses the engine.Map worker bound, as on
// Archipelago. For a lane pack the demes contend on one simulator, so
// workers only bound the bookkeeping concurrency — the gate
// evaluation itself is inherently one pass for all lanes.
func (lp *LanePack) SetWorkers(n int) { lp.arch.SetWorkers(n) }

// Epochs returns how many epochs (migration barriers) have completed.
func (lp *LanePack) Epochs() int { return lp.arch.Epochs() }

// Migrations returns how many immigrants have been accepted so far.
func (lp *LanePack) Migrations() int { return lp.arch.Migrations() }

// Demes returns the number of lane demes.
func (lp *LanePack) Demes() int { return lp.arch.Demes() }

// Step implements engine.Stepper: one epoch (MigrateEvery generations
// of every lane, then the ring barrier), exactly as Archipelago.Step.
func (lp *LanePack) Step() error { return lp.arch.Step() }

// Done implements engine.Stepper.
func (lp *LanePack) Done() bool { return lp.arch.Done() }

// Event implements engine.Stepper.
func (lp *LanePack) Event() engine.Event { return lp.arch.Event() }

// Best returns the best individual across all lanes and its fitness.
func (lp *LanePack) Best() (genome.Extended, int) {
	r := lp.arch.Result()
	return r.Best, r.BestFitness
}

// Result reports the archipelago outcome so far.
func (lp *LanePack) Result() Result { return lp.arch.Result() }

// RunCtx drives the lane pack to completion under ctx, one aggregate
// Event per epoch to obs (nil for none).
func (lp *LanePack) RunCtx(ctx context.Context, obs engine.Observer) (Result, error) {
	err := engine.Run(ctx, lp, obs)
	return lp.arch.Result(), err
}

// LanePackSnapKind is the kind tag of a lane-packed archipelago
// snapshot header.
const LanePackSnapKind = "lanepack"

const lanePackSnapVersion = 1

// Snapshot serializes the lane-packed archipelago: the island header
// (resolved parameters plus the migration cursor, mirroring the
// "island" kind) followed by one sub-snapshot of the shared lane-deme
// group. Valid at epoch boundaries, which the engine loop guarantees
// between Steps.
func (lp *LanePack) Snapshot() []byte {
	a := lp.arch
	e := engine.NewEnc(LanePackSnapKind, lanePackSnapVersion)
	e.Int(a.p.Demes)
	e.Int(a.p.MigrateEvery)
	e.Blob([]byte(a.p.Topology))
	e.Int(a.p.Base.Layout.Steps)
	e.Int(a.p.Base.Layout.Legs)
	e.Int(a.p.Base.PopulationSize)
	e.F64(a.p.Base.SelectionThreshold)
	e.F64(a.p.Base.CrossoverThreshold)
	e.Int(a.p.Base.MutationsPerGeneration)
	e.Int(a.p.Base.MaxGenerations)
	e.U64(a.p.Base.Seed)
	e.Int(a.epochs)
	e.Int(a.migrants)
	e.Blob(lp.group.Snapshot())
	return e.Bytes()
}

// RestoreLanePack rebuilds a lane-packed archipelago from a Snapshot.
// The restored run continues bit-identically to one that was never
// interrupted (proved by the differential tests).
func RestoreLanePack(data []byte) (*LanePack, error) {
	d, err := engine.NewDec(data, LanePackSnapKind)
	if err != nil {
		return nil, err
	}
	if d.Version != lanePackSnapVersion {
		return nil, fmt.Errorf("island: lanepack snapshot version %d, want %d", d.Version, lanePackSnapVersion)
	}
	p := Params{
		Demes:        d.Int(),
		MigrateEvery: d.Int(),
		Topology:     Topology(d.Blob()),
	}
	p.Base.Layout = genome.Layout{Steps: d.Int(), Legs: d.Int()}
	p.Base.PopulationSize = d.Int()
	p.Base.SelectionThreshold = d.F64()
	p.Base.CrossoverThreshold = d.F64()
	p.Base.MutationsPerGeneration = d.Int()
	p.Base.MaxGenerations = d.Int()
	p.Base.Seed = d.U64()
	epochs := d.Int()
	migrants := d.Int()
	sub := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("island: lanepack snapshot parameters invalid: %w", err)
	}
	if p.Demes > MaxLaneDemes {
		return nil, fmt.Errorf("island: lanepack snapshot has %d demes, capacity is %d", p.Demes, MaxLaneDemes)
	}
	if p.MigrateEvery <= 0 || p.Base.MaxGenerations <= 0 {
		return nil, fmt.Errorf("island: lanepack snapshot has unresolved defaults (interval %d, cap %d)",
			p.MigrateEvery, p.Base.MaxGenerations)
	}
	if epochs < 0 || migrants < 0 {
		return nil, fmt.Errorf("island: lanepack snapshot cursor (%d epochs, %d migrants) is negative", epochs, migrants)
	}
	group, err := gapcirc.RestoreLaneDemes(sub)
	if err != nil {
		return nil, err
	}
	if group.NumDemes() != p.Demes {
		return nil, fmt.Errorf("island: lanepack snapshot header says %d demes, the group holds %d", p.Demes, group.NumDemes())
	}
	return newLanePack(p, group, epochs, migrants)
}
