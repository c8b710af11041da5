package gapcirc

import (
	"context"
	"fmt"

	"leonardo/internal/carng"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/logic"
)

// This file is the lane-packed multi-seed driver: one compiled GAP
// circuit, up to logic.Lanes seeds evolving at once. The simulator
// evaluates every gate as a 64-lane bitwise operation, so running 64
// seeds costs one circuit pass per clock instead of 64 — the trick
// that turns seed sweeps (experiments E4/F5 style statistics) into a
// single batch.
//
// Lanes share the circuit and the clock but nothing else: each lane's
// cellular automaton is re-seeded independently, so the random
// streams, FSM trajectories (rejection sampling retries differ per
// lane), populations, and best registers all diverge per lane exactly
// as 64 separate chips would.

// SeedLane re-seeds one lane's cellular automaton through the DFF
// state, applying the shared carng.SeedState transform (mask to the
// cell count, zero maps to 1) — the same one BuildCA and the
// behavioural carng.NewCA apply, so the three seeding paths cannot
// drift. Call it on a freshly compiled simulator, before stepping the
// clock.
func (co *Core) SeedLane(s *logic.Sim, lane int, seed uint64) {
	init := carng.SeedState(seed, len(co.CA.State))
	for i, sig := range co.CA.State {
		s.SetDFFLane(sig, lane, init>>uint(i)&1 != 0)
	}
}

// checkSeeds rejects seed lists a lane group cannot host: none, more
// than logic.Lanes, or two that collapse onto one CA state. Two lanes
// with the same effective seed run the exact same trajectory, which
// silently halves the statistical value of a batch (or, for lane-packed
// demes, duplicates an island). The comparison uses the transformed
// state, not the raw seed — the mask-to-cell-count transform aliases
// raw seeds (0 and 1, or any pair differing only above the cell count).
func checkSeeds(co *Core, seeds []uint64) error {
	if len(seeds) == 0 {
		return fmt.Errorf("gapcirc: no seeds")
	}
	if len(seeds) > logic.Lanes {
		return fmt.Errorf("gapcirc: %d seeds exceed the %d simulator lanes", len(seeds), logic.Lanes)
	}
	cells := len(co.CA.State)
	for i := range seeds {
		for j := 0; j < i; j++ {
			if carng.SeedState(seeds[i], cells) == carng.SeedState(seeds[j], cells) {
				return fmt.Errorf("gapcirc: seeds %d and %d (%#x, %#x) collapse onto the same CA state %#x",
					j, i, seeds[j], seeds[i], carng.SeedState(seeds[i], cells))
			}
		}
	}
	return nil
}

// rebuild is the restore path shared by RestoreDriver and
// RestoreLaneDemes: it reconstructs the circuit from the snapshotted
// parameters (construction is deterministic, so the node order that
// keys the simulator state matches), compiles a fresh simulator, and
// overwrites its sequential state.
func rebuild(p gap.Params, opts BuildOpts, st logic.SimState) (*Core, *logic.Sim, error) {
	co, err := BuildWith(p, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("gapcirc: snapshot parameters: %w", err)
	}
	s, err := co.Circuit.Compile()
	if err != nil {
		return nil, nil, err
	}
	if err := s.RestoreState(st); err != nil {
		return nil, nil, err
	}
	return co, s, nil
}

// BestOfLane returns one lane's best-ever genome and fitness.
func (co *Core) BestOfLane(s *logic.Sim, lane int) (genome.Genome, int) {
	return genome.Genome(s.GetBusLane(co.Best, lane)) & genome.Mask,
		int(s.GetBusLane(co.BestFit, lane))
}

// LaneResult is one seed's outcome from a lane-packed run.
//
//leo:snapshot
type LaneResult struct {
	Seed    uint64
	Best    genome.Genome
	BestFit int
	// Cycles is the clock cycle (counted from the start of the run) at
	// which this lane completed its n-th generation. Lanes finish at
	// different cycles because rejection-sampled draws retry a
	// lane-dependent number of times.
	Cycles uint64
	// Done is false only if the run hit maxCycles before this lane
	// finished.
	Done bool
}

// RunSeeds evolves up to logic.Lanes seeds in one lane-packed batch:
// it re-seeds lane l with seeds[l], then steps the shared clock until
// every lane has completed n generations (same completion predicate as
// RunGenerations, applied per lane), snapshotting each lane's best
// register the cycle its lane finishes. The results are identical to
// building one circuit per seed and calling RunGenerations on each —
// the package tests prove it lane by lane.
//
// The simulator must be freshly compiled (no cycles run). Seeds must
// be distinct after the carng.SeedState transform — two seeds that
// collapse onto one CA state would run the same trajectory twice, so
// they are rejected rather than silently wasting a lane. maxCycles
// guards against livelock; 0 means a generous default. RunSeeds is a
// thin wrapper over the engine-backed Driver (driver.go), which also
// offers cancellation, progress observation, and checkpointing.
func (co *Core) RunSeeds(s *logic.Sim, seeds []uint64, n, maxCycles int) ([]LaneResult, error) {
	if len(seeds) == 0 {
		return nil, nil
	}
	d, err := newDriver(co, s, seeds, n, maxCycles)
	if err != nil {
		return nil, err
	}
	return d.RunCtx(context.Background(), nil)
}
