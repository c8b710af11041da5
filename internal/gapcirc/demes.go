package gapcirc

import (
	"fmt"
	"sync"

	"leonardo/internal/engine"
	"leonardo/internal/fitness"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/logic"
)

// This file inverts the lane mapping of driver.go: instead of one
// evolutionary run batched over 64 seeds, each SWAR lane hosts an
// independent *deme* of an island-model search, so one clocked circuit
// pass advances up to 64 evolutionary trajectories at once.
//
// The mechanism is the Freezable build option (core.go): every lane
// runs the standard GAP circuit, and when a lane completes a
// generation — the same Gen/StSelI1 predicate RunGenerations and the
// driver use — its freeze bit is raised, holding the lane's complete
// sequential state while slower lanes catch up. Once every lane is
// parked at the barrier the group's generation counter advances; the
// island layer (internal/island) then runs unchanged over per-lane
// deme views: ring migration latches champions via the per-lane best
// registers and inserts immigrants with a deterministic host-side
// replace-worst write into the lane's basis RAM.
//
// Equivalence argument (the differential tests pin it): lanes share
// only the circuit structure and the clock; DFF commits, RAM decode
// masks, and RAM writes are all per-lane, and a frozen lane's state is
// bit-identical when it thaws. A lane's trajectory, measured in its
// own active cycles, is therefore exactly the trajectory of the same
// seed in a single-lane group — which is how the scalar comparator in
// the tests is built — and of a plain RunSeeds batch up to the point
// where migration first perturbs the populations.

// laneDemeMaxCyclesPerGen is the livelock guard of the barrier
// advance: no lane needs anywhere near this many cycles to finish one
// generation (a paper-parameter generation is ~1900 cycles plus
// rejection-sampling tails), so hitting it means the circuit is wedged.
const laneDemeMaxCyclesPerGen = 1 << 20

// LaneDemes is a group of up to logic.Lanes demes packed into the
// lanes of one freezable GAP circuit, advanced in lock-step epochs of
// whole generations. Create with NewLaneDemes, obtain the per-lane
// island.Deme views with Demes, restore with RestoreLaneDemes.
//
// All methods are safe for concurrent use by the views: the engine's
// worker pool steps views concurrently, and whichever view first asks
// for a generation the group has not reached performs the shared
// advance under the group mutex. The advance sequence is gen 1, 2,
// 3, ... regardless of which view triggers each step, so the
// trajectory is identical for every worker count.
type LaneDemes struct {
	mu    sync.Mutex
	core  *Core
	sim   *logic.Sim
	seeds []uint64
	gen   int
	eval  fitness.Evaluator
	views []*LaneDeme
}

// NewLaneDemes builds a freezable GAP circuit and packs one deme per
// seed into its lanes. The parameters face the same restrictions as
// BuildWith, plus: populations must live in RAM (no RegisterFile —
// migration writes through the RAM lane-insert primitive), the RNG
// must be lock-step (no FreeRunningRNG — frozen lanes would otherwise
// skip draws and lose scalar equivalence), and seeds must be distinct
// after the carng.SeedState transform (a collapsed pair would run one
// island twice). p.MaxGenerations is the per-deme budget every view's
// Done reports against.
func NewLaneDemes(p gap.Params, opts BuildOpts, seeds []uint64) (*LaneDemes, error) {
	if opts.RegisterFile {
		return nil, fmt.Errorf("gapcirc: lane demes need RAM population storage, not a register file")
	}
	if opts.FreeRunningRNG {
		return nil, fmt.Errorf("gapcirc: lane demes need the lock-step RNG; a free-running CA would decouple frozen lanes from their draw streams")
	}
	if p.MaxGenerations == 0 {
		p.MaxGenerations = gap.DefaultMaxGenerations
	}
	opts.Freezable = true
	co, err := BuildWith(p, opts)
	if err != nil {
		return nil, err
	}
	if err := checkSeeds(co, seeds); err != nil {
		return nil, err
	}
	s, err := co.Circuit.Compile()
	if err != nil {
		return nil, err
	}
	g := newLaneDemes(co, s, seeds, 0)
	for l, seed := range seeds {
		co.SeedLane(s, l, seed)
	}
	// Park the unoccupied lanes permanently: they would otherwise burn
	// their broadcast-seeded trajectories to no purpose and could, in
	// principle, wedge in a rejection loop the barrier scan never
	// watches.
	for l := len(seeds); l < logic.Lanes; l++ {
		s.SetLane(co.Freeze, l, true)
	}
	return g, nil
}

// newLaneDemes wires the group struct and its views around an
// existing core and simulator (fresh or restored).
func newLaneDemes(co *Core, s *logic.Sim, seeds []uint64, gen int) *LaneDemes {
	g := &LaneDemes{
		core:  co,
		sim:   s,
		seeds: append([]uint64(nil), seeds...),
		gen:   gen,
		eval:  fitness.New(),
	}
	g.views = make([]*LaneDeme, len(seeds))
	for l := range g.views {
		g.views[l] = &LaneDeme{g: g, lane: l, want: gen}
	}
	return g
}

// Demes returns the per-lane island deme views, one per seed. The
// views are created once; repeated calls return the same instances.
func (g *LaneDemes) Demes() []*LaneDeme { return g.views }

// NumDemes returns the number of occupied lanes.
func (g *LaneDemes) NumDemes() int { return len(g.seeds) }

// Params returns the per-deme GAP parameters the circuit was built
// with.
func (g *LaneDemes) Params() gap.Params { return g.core.Params }

// Generations returns the generation count every lane has completed.
func (g *LaneDemes) Generations() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen
}

// Cycles returns the shared clock cycle count.
func (g *LaneDemes) Cycles() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sim.Cycles()
}

// ensure advances the group until every lane has completed target
// generations. Calls with an already-reached target are no-ops, so
// concurrent views requesting different targets compose.
func (g *LaneDemes) ensure(target int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.gen < target {
		if err := g.advanceLocked(); err != nil {
			return err
		}
	}
	return nil
}

// advanceLocked runs one generation barrier: thaw the occupied lanes,
// clock the shared circuit, and freeze each lane the cycle it
// completes the next generation, until all are parked. The completion
// predicate per lane is the one RunGenerations uses — Gen reads the
// target and the FSM sits at StSelI1 — masked to the Gen bus width so
// runs past 2^16 generations wrap correctly (one barrier advances
// exactly one generation, so the wrapped compare is unambiguous).
func (g *LaneDemes) advanceLocked() error {
	s, co := g.sim, g.core
	all := uint64(0)
	for l := range g.seeds {
		s.SetLane(co.Freeze, l, false)
		all |= 1 << uint(l)
	}
	target := uint64(g.gen+1) & (1<<16 - 1)
	frozen := uint64(0)
	limit := s.Cycles() + laneDemeMaxCyclesPerGen
	for {
		done := s.BusEqMask(co.Gen, target) & s.BusEqMask(co.State, StSelI1) & all
		if newly := done &^ frozen; newly != 0 {
			for l := range g.seeds {
				if newly>>uint(l)&1 != 0 {
					s.SetLane(co.Freeze, l, true)
				}
			}
			frozen |= newly
			if frozen == all {
				break
			}
		}
		if s.Cycles() >= limit {
			return fmt.Errorf("gapcirc: %d of %d lane demes did not finish generation %d within %d cycles",
				len(g.seeds)-popcount(frozen), len(g.seeds), g.gen+1, laneDemeMaxCyclesPerGen)
		}
		s.Step()
	}
	g.gen++
	return nil
}

// popcount is bits.OnesCount64 without the import, for the error path.
func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// bestLane reads one lane's best register. Callers hold mu.
func (g *LaneDemes) bestLane(lane int) (genome.Genome, int) {
	return g.core.BestOfLane(g.sim, lane)
}

// BestLane returns one lane's best-ever genome and fitness.
func (g *LaneDemes) BestLane(lane int) (genome.Genome, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.bestLane(lane)
}

// ReadBasisLane returns one lane's current basis population — the
// per-lane form of Core.ReadBasis, for tests and inspection.
func (g *LaneDemes) ReadBasisLane(lane int) []genome.Genome {
	g.mu.Lock()
	defer g.mu.Unlock()
	name := "ram0"
	if g.sim.GetLane(g.core.Bank, lane) {
		name = "ram1"
	}
	out := make([]genome.Genome, g.core.Params.PopulationSize)
	for i := range out {
		out[i] = genome.Genome(g.sim.ReadRAMLane(name, i, lane)) & genome.Mask
	}
	return out
}

// replaceWorst is the immigration kernel: scan the lane's basis
// population with the host-side fitness twin (the LUT evaluator
// computes exactly what the circuit's fitness module computes), and
// overwrite the first worst individual with the immigrant if the
// immigrant is strictly fitter. The scan order, tie-breaking, and
// write are all deterministic and touch only the destination lane.
// It reports whether the immigrant was accepted.
//
//leo:hotpath
func (g *LaneDemes) replaceWorst(lane int, imm genome.Genome) bool {
	s, co := g.sim, g.core
	name := "ram0"
	if s.GetLane(co.Bank, lane) {
		name = "ram1"
	}
	worst, worstFit := 0, 0
	for i := 0; i < co.Params.PopulationSize; i++ {
		w := genome.Genome(s.ReadRAMLane(name, i, lane)) & genome.Mask
		f := g.eval.Score(w)
		if i == 0 || f < worstFit {
			worst, worstFit = i, f
		}
	}
	if g.eval.Score(imm) <= worstFit {
		return false
	}
	s.WriteRAMLane(name, worst, lane, uint64(imm))
	return true
}

// LaneDeme is one lane of a LaneDemes group viewed as an island deme:
// it satisfies island.Deme, so the archipelago's ring migration,
// latch-then-commit discipline, and epoch accounting run over lanes
// exactly as they run over scalar demes. Step advances the whole
// group by one generation (a no-op if another view already did);
// migration methods address only this view's lane.
type LaneDeme struct {
	g    *LaneDemes
	lane int
	want int // generations this view has requested
}

// Lane returns the SWAR lane this deme occupies.
func (d *LaneDeme) Lane() int { return d.lane }

// Step implements engine.Stepper: one generation of this deme. The
// group advances all lanes together, so the first view to request a
// generation performs it for everyone.
func (d *LaneDeme) Step() error {
	d.want++
	return d.g.ensure(d.want)
}

// Done implements engine.Stepper: the deme's budget is exhausted. Lane
// demes run to MaxGenerations exactly — the circuit has no early
// convergence exit, matching the driver's semantics — so all views of
// a group finish together.
func (d *LaneDeme) Done() bool {
	g := d.g
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen >= g.core.Params.MaxGenerations
}

// Event implements engine.Stepper with this lane's telemetry.
func (d *LaneDeme) Event() engine.Event {
	g := d.g
	g.mu.Lock()
	defer g.mu.Unlock()
	_, fit := g.bestLane(d.lane)
	done := 0
	if g.gen >= g.core.Params.MaxGenerations {
		done = 1
	}
	return engine.Event{
		Generation: g.gen,
		BestEver:   fit,
		Cycle:      g.sim.Cycles(),
		LanesDone:  done,
	}
}

// Best implements island.Deme: this lane's best-ever individual.
func (d *LaneDeme) Best() (genome.Extended, int) {
	g := d.g
	g.mu.Lock()
	defer g.mu.Unlock()
	bg, fit := g.bestLane(d.lane)
	return genome.FromGenome(bg), fit
}

// Immigrate implements island.Deme: accept a champion from another
// island by replacing this lane's worst basis individual, if the
// champion improves on it. The circuit's best register picks the
// immigrant up on the lane's next evaluation scan, exactly as it picks
// up any other population change.
func (d *LaneDeme) Immigrate(x genome.Extended) error {
	if x.Layout != genome.PaperLayout {
		return fmt.Errorf("gapcirc: immigrant layout %+v does not match the paper layout", x.Layout)
	}
	g := d.g
	g.mu.Lock()
	defer g.mu.Unlock()
	g.replaceWorst(d.lane, x.Packed())
	return nil
}

// Snapshot implements island.Deme by serializing the whole group —
// lanes share one simulator, so there is no smaller self-contained
// unit. The island layer never restores it per deme: a lane-packed
// archipelago snapshots the group once, through island.LanePack.
func (d *LaneDeme) Snapshot() []byte { return d.g.Snapshot() }

const (
	laneDemesSnapKind    = "lanedemes"
	laneDemesSnapVersion = 1
)

// Snapshot serializes the group: build parameters, seeds, the group
// generation cursor, and the complete sequential state of the shared
// simulator (which includes the freeze input, so parked lanes stay
// parked across the round-trip). Valid at generation barriers — which
// is whenever no view is mid-Step, the same contract as every engine
// snapshot.
func (g *LaneDemes) Snapshot() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := engine.NewEnc(laneDemesSnapKind, laneDemesSnapVersion)
	gap.EncodeParams(e, g.core.Params)
	e.Int(len(g.seeds))
	for _, s := range g.seeds {
		e.U64(s)
	}
	e.Int(g.gen)
	g.sim.SnapshotState().EncodeTo(e)
	return e.Bytes()
}

// RestoreLaneDemes rebuilds a group from a Snapshot: the circuit is
// reconstructed from the serialized parameters (deterministic), a
// fresh simulator compiled, and its sequential state overwritten, so
// the continuation is cycle-identical to an uninterrupted run.
func RestoreLaneDemes(data []byte) (*LaneDemes, error) {
	dec, err := engine.NewDec(data, laneDemesSnapKind)
	if err != nil {
		return nil, err
	}
	if dec.Version != laneDemesSnapVersion {
		return nil, fmt.Errorf("gapcirc: lane-deme snapshot version %d, want %d", dec.Version, laneDemesSnapVersion)
	}
	p := gap.DecodeParams(dec)
	nLanes := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if nLanes < 1 || nLanes > logic.Lanes {
		return nil, fmt.Errorf("gapcirc: lane-deme snapshot has %d lanes", nLanes)
	}
	seeds := make([]uint64, nLanes)
	for i := range seeds {
		seeds[i] = dec.U64()
	}
	gen := dec.Int()
	st, err := logic.DecodeSimState(dec)
	if err != nil {
		return nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	if gen < 0 {
		return nil, fmt.Errorf("gapcirc: lane-deme snapshot generation cursor %d is negative", gen)
	}
	if p.MaxGenerations <= 0 {
		return nil, fmt.Errorf("gapcirc: lane-deme snapshot has unresolved generation budget %d", p.MaxGenerations)
	}
	co, s, err := rebuild(p, BuildOpts{Freezable: true}, st)
	if err != nil {
		return nil, err
	}
	if err := checkSeeds(co, seeds); err != nil {
		return nil, err
	}
	return newLaneDemes(co, s, seeds, gen), nil
}
