package gapcirc

import (
	"context"
	"fmt"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/logic"
)

// Driver is the engine-backed form of the lane-packed multi-seed run:
// it owns a compiled GAP circuit plus up to logic.Lanes seeds and
// advances them under the shared run-loop contract — Step executes a
// bounded slice of clock cycles, so cancellation and checkpointing land
// within a fraction of a generation. RunSeeds is a thin wrapper around
// a Driver run to completion.
type Driver struct {
	core *Core
	sim  *logic.Sim

	generations int // per-lane target
	maxCycles   uint64
	res         []LaneResult
	remaining   int
}

// driverStride is how many clock cycles one engine Step executes. A
// paper-parameter generation takes roughly 1900 cycles, so the stride
// keeps cancellation latency under a generation while the per-step
// overhead (one Done/ctx check per stride) stays negligible.
const driverStride = 1024

// defaultMaxCycles is the livelock guard shared by Driver and RunSeeds.
const defaultMaxCycles = 2_000_000

// NewDriver builds the GAP circuit for the parameters, compiles it,
// seeds lane l with seeds[l], and returns a Driver that will run every
// lane to the given per-lane generation count. maxCycles caps the
// shared clock (0 means a generous default).
func NewDriver(p gap.Params, opts BuildOpts, seeds []uint64, generations, maxCycles int) (*Driver, error) {
	co, err := BuildWith(p, opts)
	if err != nil {
		return nil, err
	}
	s, err := co.Circuit.Compile()
	if err != nil {
		return nil, err
	}
	return newDriver(co, s, seeds, generations, maxCycles)
}

// newDriver wraps an existing core and freshly compiled simulator.
func newDriver(co *Core, s *logic.Sim, seeds []uint64, generations, maxCycles int) (*Driver, error) {
	if err := checkSeeds(co, seeds); err != nil {
		return nil, err
	}
	if s.Cycles() != 0 {
		return nil, fmt.Errorf("gapcirc: driver needs a freshly compiled simulator, this one has run %d cycles", s.Cycles())
	}
	if co.Opts.Freezable {
		return nil, fmt.Errorf("gapcirc: the driver never freezes lanes; freezable circuits belong to the lane-deme group (NewLaneDemes)")
	}
	if generations < 0 {
		return nil, fmt.Errorf("gapcirc: negative generation target %d", generations)
	}
	if maxCycles == 0 {
		maxCycles = defaultMaxCycles
	}
	d := &Driver{
		core:        co,
		sim:         s,
		generations: generations,
		maxCycles:   uint64(maxCycles),
		res:         make([]LaneResult, len(seeds)),
		remaining:   len(seeds),
	}
	for l, seed := range seeds {
		co.SeedLane(s, l, seed)
		d.res[l].Seed = seed
	}
	d.check()
	return d, nil
}

// check scans the unfinished lanes for the completion predicate and
// latches their results the cycle they finish.
func (d *Driver) check() {
	for l := range d.res {
		if d.res[l].Done {
			continue
		}
		if d.sim.GetBusLane(d.core.Gen, l) == uint64(d.generations) &&
			d.sim.GetBusLane(d.core.State, l) == StSelI1 {
			d.res[l].Best, d.res[l].BestFit = d.core.BestOfLane(d.sim, l)
			d.res[l].Cycles = d.sim.Cycles()
			d.res[l].Done = true
			d.remaining--
		}
	}
}

// Step implements engine.Stepper: it advances up to driverStride clock
// cycles, checking lane completion after every cycle exactly as
// RunSeeds always did. It fails if the clock hits the livelock guard
// with lanes still running.
func (d *Driver) Step() error {
	for i := 0; i < driverStride && d.remaining > 0; i++ {
		if d.sim.Cycles() >= d.maxCycles {
			return fmt.Errorf("gapcirc: %d of %d lanes did not reach generation %d within %d cycles",
				d.remaining, len(d.res), d.generations, d.maxCycles)
		}
		d.sim.Step()
		d.check()
	}
	return nil
}

// Done implements engine.Stepper: the run is over when every lane has
// latched its result.
func (d *Driver) Done() bool { return d.remaining == 0 }

// Event implements engine.Stepper. Generation is the slowest
// still-running lane's counter (or the target when all are done);
// BestEver is the best fitness latched or in flight across all lanes.
func (d *Driver) Event() engine.Event {
	gen := d.generations
	best := 0
	for l := range d.res {
		if d.res[l].Done {
			if d.res[l].BestFit > best {
				best = d.res[l].BestFit
			}
			continue
		}
		if g := int(d.sim.GetBusLane(d.core.Gen, l)); g < gen {
			gen = g
		}
		if _, f := d.core.BestOfLane(d.sim, l); f > best {
			best = f
		}
	}
	return engine.Event{
		Generation: gen,
		BestEver:   best,
		Cycle:      d.sim.Cycles(),
		LanesDone:  len(d.res) - d.remaining,
	}
}

// Results returns the per-lane outcomes (shared slice; valid any time,
// final once Done reports true).
func (d *Driver) Results() []LaneResult { return d.res }

// Best returns the best individual across all lanes — latched results
// for finished lanes, the live best register otherwise — as an extended
// genome on the paper layout.
func (d *Driver) Best() (genome.Extended, int) {
	var bg genome.Genome
	best := -1
	for l := range d.res {
		if d.res[l].Done {
			if d.res[l].BestFit > best {
				best, bg = d.res[l].BestFit, d.res[l].Best
			}
			continue
		}
		if g, f := d.core.BestOfLane(d.sim, l); f > best {
			best, bg = f, g
		}
	}
	return genome.FromGenome(bg), best
}

// RunCtx drives every lane to completion under ctx, reporting progress
// to obs (nil for none). On cancellation the partial results mark
// unfinished lanes Done=false.
func (d *Driver) RunCtx(ctx context.Context, obs engine.Observer) ([]LaneResult, error) {
	err := engine.Run(ctx, d, obs)
	return d.res, err
}

// DriverSnapKind is the kind tag of a Driver snapshot header.
const DriverSnapKind = "gapcirc"

const driverSnapVersion = 1

// Snapshot serializes the driver: build parameters, per-lane results,
// and the complete sequential state of the simulator. Circuit
// construction is deterministic, so the rebuilt circuit's node order —
// which keys the simulator state — matches by construction.
func (d *Driver) Snapshot() []byte {
	e := engine.NewEnc(DriverSnapKind, driverSnapVersion)
	gap.EncodeParams(e, d.core.Params)
	e.Bool(d.core.Opts.RegisterFile)
	e.Bool(d.core.Opts.FreeRunningRNG)
	e.Int(d.generations)
	e.U64(d.maxCycles)
	e.Int(len(d.res))
	for _, r := range d.res {
		e.U64(r.Seed)
		e.U64(uint64(r.Best))
		e.Int(r.BestFit)
		e.U64(r.Cycles)
		e.Bool(r.Done)
	}
	d.sim.SnapshotState().EncodeTo(e)
	return e.Bytes()
}

// RestoreDriver rebuilds a Driver from a Snapshot: it reconstructs the
// circuit from the serialized parameters (deterministic), compiles a
// fresh simulator, and overwrites its sequential state, so the
// continued run is cycle-identical to one that was never interrupted.
func RestoreDriver(data []byte) (*Driver, error) {
	dec, err := engine.NewDec(data, DriverSnapKind)
	if err != nil {
		return nil, err
	}
	if dec.Version != driverSnapVersion {
		return nil, fmt.Errorf("gapcirc: snapshot version %d, want %d", dec.Version, driverSnapVersion)
	}
	p := gap.DecodeParams(dec)
	opts := BuildOpts{RegisterFile: dec.Bool(), FreeRunningRNG: dec.Bool()}
	generations := dec.Int()
	maxCycles := dec.U64()
	nLanes := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if nLanes < 1 || nLanes > logic.Lanes {
		return nil, fmt.Errorf("gapcirc: snapshot has %d lanes", nLanes)
	}
	res := make([]LaneResult, nLanes)
	remaining := nLanes
	for l := range res {
		res[l] = LaneResult{
			Seed:    dec.U64(),
			Best:    genome.Genome(dec.U64()) & genome.Mask,
			BestFit: dec.Int(),
			Cycles:  dec.U64(),
			Done:    dec.Bool(),
		}
		if res[l].Done {
			remaining--
		}
	}
	st, err := logic.DecodeSimState(dec)
	if err != nil {
		return nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	co, s, err := rebuild(p, opts, st)
	if err != nil {
		return nil, err
	}
	return &Driver{
		core:        co,
		sim:         s,
		generations: generations,
		maxCycles:   maxCycles,
		res:         res,
		remaining:   remaining,
	}, nil
}
