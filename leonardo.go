// Package leonardo is a full software reproduction of "Leonardo and
// Discipulus Simplex: An Autonomous, Evolvable Six-Legged Walking
// Robot" (Ritter, Puiatti, Sanchez; IPPS/SPDP 1999 workshops): an
// on-chip genetic algorithm that learns a hexapod walking gait with no
// processor and no off-line computation.
//
// The package is a facade over the full system:
//
//   - Evolve runs the behavioural Genetic Algorithm Processor (GAP) at
//     the paper's parameters and returns the champion gait;
//   - Walk plays any genome on the simulated Leonardo robot and
//     measures distance, stability, and stumbles;
//   - Fitness and Breakdown expose the paper's three-rule logic
//     fitness;
//   - OnChip builds the gate-level Discipulus Simplex circuit and
//     evolves cycle by cycle on the simulated FPGA;
//   - Synthesize maps the complete chip onto the XC4036EX device model
//     and reports CLB usage.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package leonardo

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"leonardo/internal/core"
	"leonardo/internal/engine"
	"leonardo/internal/fitness"
	"leonardo/internal/fpga"
	"leonardo/internal/gait"
	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
	"leonardo/internal/genome"
	"leonardo/internal/island"
	"leonardo/internal/logic"
	"leonardo/internal/repertoire"
	"leonardo/internal/robot"
)

// Genome is the paper's 36-bit gait encoding (2 steps x 6 legs x 3
// bits per leg-step).
type Genome = genome.Genome

// Params configures an evolution run; see PaperParams for the paper's
// values.
type Params = gap.Params

// WalkMetrics reports how a gait performs on the simulated robot.
type WalkMetrics = robot.Metrics

// Breakdown reports per-rule fitness detail.
type Breakdown = fitness.Breakdown

// Result is the outcome of an evolution run.
type Result = gap.Result

// PaperParams returns the parameter set of §3.3 of the paper:
// population 32, 36-bit genomes, selection threshold 0.8, crossover
// threshold 0.7, 15 mutations per generation, for the given random
// seed.
func PaperParams(seed uint64) Params { return gap.PaperParams(seed) }

// Evolve runs the behavioural GAP until a maximum-fitness gait is
// found (or the generation cap is hit) and returns the result.
func Evolve(p Params) (Result, error) {
	return EvolveCtx(context.Background(), p, nil)
}

// Event is one generation's telemetry from a running evolution.
type Event = engine.Event

// Observer receives per-generation Events from EvolveCtx or Run.RunCtx.
type Observer = engine.Observer

// ObserverFunc adapts a plain function to an Observer.
func ObserverFunc(f func(Event)) Observer { return engine.FuncObserver(f) }

// EvolveCtx is Evolve with cancellation and observation: the run stops
// at the next generation boundary once ctx ends (returning the
// context's error together with the valid partial Result), and obs —
// if non-nil — receives one Event per generation.
func EvolveCtx(ctx context.Context, p Params, obs Observer) (Result, error) {
	g, err := gap.New(p)
	if err != nil {
		return Result{}, err
	}
	return g.RunCtx(ctx, obs)
}

// Run is a pausable, resumable behavioural GAP run: step it one
// generation at a time, snapshot it to bytes at any generation
// boundary, and resume the exact run — bit for bit — later or
// elsewhere. GenerationNumber, Result, and RunCtx report on and drive
// it.
type Run = gap.GAP

// NewRun starts a fresh evolution run at the given parameters.
func NewRun(p Params) (*Run, error) { return gap.New(p) }

// Resume reconstructs a Run from a Snapshot. The resumed run continues
// the original random trajectory exactly, so interrupted and
// uninterrupted runs finish with identical results.
func Resume(snapshot []byte) (*Run, error) { return gap.Restore(snapshot, nil) }

// IslandParams configures an island-model (archipelago) evolution run:
// N independent demes, each a full GAP with its own CA-RNG stream
// derived from the master seed, exchanging champions over a ring every
// MigrateEvery generations. See internal/island for the determinism
// rules.
type IslandParams = island.Params

// IslandResult is the outcome of an archipelago run: the global
// champion, the deme that found it, and the migration tally.
type IslandResult = island.Result

// Ring and IsolatedIslands name the archipelago migration topologies.
const (
	Ring            = island.Ring
	IsolatedIslands = island.Isolated
)

// EvolveIslands runs an archipelago to completion under ctx: every deme
// advances concurrently (bounded by IslandParams.Workers), migration
// happens at deterministic barriers, and the run replays bit-identically
// for any worker count. obs — if non-nil — receives one aggregate Event
// per epoch.
func EvolveIslands(ctx context.Context, p IslandParams, obs Observer) (IslandResult, error) {
	a, err := island.New(p)
	if err != nil {
		return IslandResult{}, err
	}
	return a.RunCtx(ctx, obs)
}

// IslandRun is the pausable, resumable archipelago run, the
// multi-deme analogue of Run: one Step is one epoch, Snapshot is valid
// at any epoch boundary, and a resumed run continues bit for bit.
// SetWorkers re-chooses the deme fan-out bound — pure scheduling, so it
// is the one parameter a resume does not inherit from the snapshot.
type IslandRun = island.Archipelago

// NewIslandRun starts a fresh archipelago at the given parameters.
func NewIslandRun(p IslandParams) (*IslandRun, error) { return island.New(p) }

// ResumeIslands reconstructs an IslandRun from a Snapshot. The resumed
// archipelago continues the original trajectory exactly.
func ResumeIslands(snapshot []byte) (*IslandRun, error) { return island.Restore(snapshot, nil) }

// Fitness scores a genome with the paper's three physical rules
// (equilibrium, symmetry, coherence). The maximum is MaxFitness.
func Fitness(g Genome) int { return fitness.New().Score(g) }

// MaxFitness is the highest attainable rule fitness (26).
func MaxFitness() int { return fitness.New().Max() }

// FitnessBreakdown reports the per-rule scores of a genome.
func FitnessBreakdown(g Genome) Breakdown { return fitness.New().Breakdown(g) }

// Walk plays a genome on the simulated Leonardo for the given number
// of full gait cycles (two steps each) and returns the metrics.
func Walk(g Genome, cycles int) WalkMetrics {
	return robot.WalkGenome(g, robot.Trial{Cycles: cycles})
}

// Tripod returns the canonical alternating tripod gait — the
// best-known walk for the robot, which also attains maximum rule
// fitness.
func Tripod() Genome { return gait.Tripod() }

// TurnLeft returns a counterclockwise turn-in-place gait. Turning
// through the genome necessarily violates the coherence rule, so the
// paper's fitness never selects it; the robot steers with its body
// articulation instead.
func TurnLeft() Genome { return gait.TurnLeft() }

// TurnRight returns the clockwise twin of TurnLeft.
func TurnRight() Genome { return gait.TurnRight() }

// WalkTrial plays a genome with full trial control (articulation
// steering, obstacles, leg failures); see robot.Trial for the fields.
func WalkTrial(g Genome, trial robot.Trial) WalkMetrics {
	return robot.WalkGenome(g, trial)
}

// Lifetime runs the paper's Fig. 3 closed loop on one 1 MHz timeline —
// the robot walks with the current best gait while the GAP evolves on
// the same clock, reconfiguring the controller whenever the best
// individual improves — for the given seconds of robot time at the
// paper-implied GAP pace (~300k cycles/generation). It returns the
// recorded timeline.
func Lifetime(p Params, seconds float64) (core.Timeline, error) {
	sys, err := core.New(core.Config{
		Params:              p,
		CyclesPerGeneration: gap.PaperCyclesPerGeneration(),
	})
	if err != nil {
		return core.Timeline{}, err
	}
	return sys.RunSeconds(seconds), nil
}

// Describe renders a genome as a per-step movement table plus its
// fitness breakdown.
func Describe(g Genome) string {
	return fmt.Sprintf("%s\nfitness %d/%d (%s)",
		g.Describe(), Fitness(g), MaxFitness(), FitnessBreakdown(g))
}

// GaitDiagram renders the classical stance/swing diagram of a genome
// over n gait cycles.
func GaitDiagram(g Genome, cycles int) string {
	return gait.Diagram(genome.FromGenome(g), cycles)
}

// RunTime converts an evolution run to wall time on the paper's
// hardware: the measured cycles-per-generation of the gate-level GAP
// at the 1 MHz clock.
func RunTime(r Result) time.Duration {
	return gap.PaperTiming().RunDuration(r.Generations)
}

// ExhaustiveTime is the paper's comparison point: scanning all 2^36
// genomes at one per microsecond (~19 hours).
func ExhaustiveTime() time.Duration { return gap.ExhaustiveDuration(genome.Bits) }

// OnChip is a handle to the gate-level Discipulus Simplex running on
// the simulated FPGA fabric, evolving clock cycle by clock cycle.
type OnChip struct {
	core *gapcirc.Core
	sim  *logic.Sim
}

// NewOnChip builds and compiles the gate-level GAP. The population
// size must be a power of two; the objective must be the paper's rule
// fitness.
func NewOnChip(p Params) (*OnChip, error) {
	core, err := gapcirc.Build(p)
	if err != nil {
		return nil, err
	}
	sim, err := core.Circuit.Compile()
	if err != nil {
		return nil, err
	}
	return &OnChip{core: core, sim: sim}, nil
}

// Cycles returns the clock cycles simulated so far.
func (o *OnChip) Cycles() uint64 { return o.sim.Cycles() }

// RunGenerations advances the chip to the given generation number and
// returns the cycles consumed by the call.
func (o *OnChip) RunGenerations(n int) (uint64, error) {
	return o.core.RunGenerations(o.sim, n, 0)
}

// Best returns the chip's best-individual register and its fitness.
func (o *OnChip) Best() (Genome, int) {
	return o.core.BestOf(o.sim)
}

// Population returns the chip's current basis population.
func (o *OnChip) Population() []Genome {
	return o.core.ReadBasis(o.sim)
}

// Synthesize builds the complete Discipulus Simplex chip (GAP +
// fitness module + walking controller + PWM) and maps it onto the
// paper's XC4036EX, returning the resource report. Set registerFile to
// cost the population storage in flip-flops instead of CLB RAM.
func Synthesize(registerFile bool) (fpga.Report, error) {
	sys, err := gapcirc.BuildSystem(PaperParams(1), gapcirc.BuildOpts{RegisterFile: registerFile}, 0)
	if err != nil {
		return fpga.Report{}, err
	}
	return fpga.Map(sys.Core.Circuit, fpga.XC4036EX), nil
}

// Run kinds — the snapshot kind tags of the six resumable run shapes,
// each taken from the package that writes that snapshot header. They
// double as the wire values of RunSpec.Kind and as the strings
// SnapshotKind reports for a checkpoint file.
const (
	// KindGAP is a single behavioural GAP population (Run).
	KindGAP = gap.SnapKind
	// KindIsland is an island-model archipelago (IslandRun).
	KindIsland = island.SnapKind
	// KindCircuit is the lane-packed gate-level driver (CircuitRun).
	KindCircuit = gapcirc.DriverSnapKind
	// KindLanePack is the lane-packed archipelago: one gate-level deme
	// per SWAR lane of a single shared simulator (LanePackRun).
	KindLanePack = island.LanePackSnapKind
	// KindCluster is one node's shard of a distributed archipelago
	// (ClusterRun): a contiguous block of the global deme space plus the
	// fleet placement, exchanged over a MigrationTransport.
	KindCluster = island.ClusterSnapKind
	// KindRepertoire is a MAP-Elites quality-diversity archive over
	// (heading, stride) descriptor cells (RepertoireRun).
	KindRepertoire = repertoire.SnapKind
)

// Runner is the kind-agnostic view of a resumable evolution run: Run,
// IslandRun, CircuitRun, LanePackRun, RepertoireRun, and ClusterRun
// all satisfy it, and it satisfies engine.Stepper, so one engine loop
// drives any kind. Step granularity differs by kind — a generation
// (gap), an epoch (island, lanepack, cluster), a bounded slice of clock
// cycles (circuit), or a candidate batch (repertoire) — but the
// contract is shared: Step only between Done checks, Snapshot only
// between Steps, and a resumed run continues the original trajectory
// bit for bit. SnapshotKind(r.Snapshot()) names the kind.
type Runner interface {
	// Step advances one engine step.
	Step() error
	// Done reports whether the run has converged or exhausted its
	// budget.
	Done() bool
	// Event returns the most recent step's telemetry.
	Event() Event
	// Snapshot serializes the complete run state for ResumeAny
	// (ResumeCluster for a cluster shard).
	Snapshot() []byte
}

// CircuitRun is the pausable, resumable gate-level run: up to 64 seeds
// evolve in the bit-parallel lanes of one compiled GAP circuit, one Step
// is a bounded slice of clock cycles, and the complete simulator state
// checkpoints and resumes cycle-identically. Results reports the
// per-lane outcomes once Done.
type CircuitRun = gapcirc.Driver

// LaneResult is one lane's outcome in a CircuitRun.
type LaneResult = gapcirc.LaneResult

// NewCircuitRun builds and compiles the gate-level GAP for the
// parameters, seeds lane l with seeds[l] (at most 64), and returns a
// run that advances every lane to the given per-lane generation count.
// maxCycles caps the shared clock as a livelock guard (0 means a
// generous default).
func NewCircuitRun(p Params, seeds []uint64, generations, maxCycles int) (*CircuitRun, error) {
	return gapcirc.NewDriver(p, gapcirc.BuildOpts{}, seeds, generations, maxCycles)
}

// ResumeCircuit reconstructs a CircuitRun from a Snapshot: the circuit
// is rebuilt from the serialized parameters (construction is
// deterministic) and the simulator's sequential state is restored, so
// the continued run is cycle-identical to one that was never
// interrupted.
func ResumeCircuit(snapshot []byte) (*CircuitRun, error) { return gapcirc.RestoreDriver(snapshot) }

// DefaultLanePackDemes is the deme count a lane-packed run takes when
// the spec leaves Islands zero: all 64 simulator lanes occupied, the
// configuration the lane packing exists for.
const DefaultLanePackDemes = island.MaxLaneDemes

// LanePackRun is the pausable, resumable lane-packed archipelago: up to
// 64 gate-level demes, one per SWAR lane of a single shared simulator,
// under the same ring-migration semantics as IslandRun. One Step is one
// epoch for all demes at once — the gate evaluation is one circuit pass
// per clock cycle regardless of the deme count, which is the whole
// point. It embeds its *IslandRun as the Archipelago field, so Epochs,
// Params, Result, RunCtx, and the rest are the IslandRun methods; only
// Snapshot is its own, writing the "lanepack" kind that stores the
// shared simulator once.
type LanePackRun = island.LanePack

// NewLanePackRun starts a fresh lane-packed archipelago. p.Demes must
// not exceed 64 and p.Base.Objective must be nil (the fitness function
// is baked into the circuit).
func NewLanePackRun(p IslandParams) (*LanePackRun, error) { return island.NewLanePack(p) }

// ResumeLanePack reconstructs a LanePackRun from a Snapshot. The
// resumed archipelago continues the original trajectory exactly.
func ResumeLanePack(snapshot []byte) (*LanePackRun, error) { return island.RestoreLanePack(snapshot) }

// EvolveLanePack runs a lane-packed archipelago to completion under
// ctx; obs — if non-nil — receives one aggregate Event per epoch.
func EvolveLanePack(ctx context.Context, p IslandParams, obs Observer) (IslandResult, error) {
	lp, err := island.NewLanePack(p)
	if err != nil {
		return IslandResult{}, err
	}
	return lp.RunCtx(ctx, obs)
}

// RepertoireParams configures a quality-diversity repertoire run: a
// MAP-Elites grid over final heading (circular, in [-π, π)) crossed
// with per-cycle stride displacement, every cell holding the fittest
// gait found with that behaviour. Zero-valued knobs take the package
// defaults, so RepertoireParams{Seed: s} is a complete configuration.
type RepertoireParams = repertoire.Params

// RepertoireResult is the outcome of a repertoire run: coverage,
// the best elite, and the work counters.
type RepertoireResult = repertoire.Result

// RepertoireElite is one occupied cell of the archive: the best genome
// found so far for that (heading, stride) behaviour, with its measured
// descriptors.
type RepertoireElite = repertoire.Elite

// RepertoireGrid is the descriptor-space discretization of a
// repertoire (pure geometry: binning and cell centers).
type RepertoireGrid = repertoire.Grid

// EvolveRepertoire runs a MAP-Elites repertoire to its evaluation
// budget under ctx: candidates evaluate concurrently (bounded by
// RepertoireParams.Workers) through the packed-LUT fitness fast path
// and the rigid-motion descriptor fit, and the run replays
// bit-identically for any worker count. obs — if non-nil — receives
// one aggregate Event per batch.
func EvolveRepertoire(ctx context.Context, p RepertoireParams, obs Observer) (RepertoireResult, error) {
	r, err := repertoire.New(p)
	if err != nil {
		return RepertoireResult{}, err
	}
	return r.RunCtx(ctx, obs)
}

// RepertoireRun is the pausable, resumable repertoire run: one Step
// plans, evaluates, and commits a candidate batch, Snapshot is valid at
// any batch boundary, and a resumed run continues bit for bit. Once
// filled, the archive answers O(1) behaviour queries through Lookup.
type RepertoireRun = repertoire.Repertoire

// NewRepertoireRun starts a fresh repertoire at the given parameters.
func NewRepertoireRun(p RepertoireParams) (*RepertoireRun, error) { return repertoire.New(p) }

// ResumeRepertoire reconstructs a RepertoireRun from a Snapshot. The
// resumed run continues the original trajectory exactly.
func ResumeRepertoire(snapshot []byte) (*RepertoireRun, error) { return repertoire.Restore(snapshot) }

// RunSpec is the serialized, kind-tagged description of any run the
// facade can construct — the wire format of leonardod's POST /v1/runs
// and the one document a service needs to persist to rebuild a run
// from scratch. Zero-valued fields take the paper defaults (PaperParams
// for the GA knobs), so {"kind":"gap","seed":1} is a complete spec.
type RunSpec struct {
	// Kind selects the run shape: KindGAP, KindIsland, KindCircuit,
	// KindLanePack, KindRepertoire, or KindCluster.
	Kind string `json:"kind"`
	// Name identifies a KindCluster run fleet-wide: the same spec —
	// same name included — must be submitted to every node, and the
	// name keys the migration traffic between them. Single-node kinds
	// ignore it.
	Name string `json:"name,omitempty"`
	// Seed is the master random seed (and the single-lane seed of a
	// circuit run with no explicit Seeds).
	Seed uint64 `json:"seed"`
	// Steps widens the genome beyond the paper's 2-step layout (0 = 2,
	// the paper; larger values explore the future-work layouts).
	Steps int `json:"steps,omitempty"`
	// Population, Selection, Crossover, Mutations, and MaxGenerations
	// override the paper's GA parameters where non-zero.
	Population     int     `json:"population,omitempty"`
	Selection      float64 `json:"selection,omitempty"`
	Crossover      float64 `json:"crossover,omitempty"`
	Mutations      int     `json:"mutations,omitempty"`
	MaxGenerations int     `json:"max_generations,omitempty"`
	// Islands, MigrateEvery, Topology, and Workers configure a
	// KindIsland or KindLanePack run (see IslandParams). Workers is
	// pure scheduling and never affects the trajectory. A lane-packed
	// run with Islands zero takes DefaultLanePackDemes (64).
	Islands      int    `json:"islands,omitempty"`
	MigrateEvery int    `json:"migrate_every,omitempty"`
	Topology     string `json:"topology,omitempty"`
	Workers      int    `json:"workers,omitempty"`
	// Seeds and Generations configure a KindCircuit run: one lane per
	// seed (at most 64; empty means one lane seeded with Seed), each
	// run to the per-lane generation target. MaxCycles caps the shared
	// clock (0 = default livelock guard).
	Seeds       []uint64 `json:"seeds,omitempty"`
	Generations int      `json:"generations,omitempty"`
	MaxCycles   int      `json:"max_cycles,omitempty"`
	// Grid, Batch, and Evaluations configure a KindRepertoire run: the
	// descriptor grid as "HxS" (e.g. "16x8"; empty means the package
	// default), the candidates evaluated per batch, and the total
	// evaluation budget. Workers applies here too.
	Grid        string `json:"grid,omitempty"`
	Batch       int    `json:"batch,omitempty"`
	Evaluations int    `json:"evaluations,omitempty"`
}

// ParseGrid parses a "HxS" grid string ("16x8") into its axis sizes.
func ParseGrid(s string) (headings, strides int, err error) {
	if n, err := fmt.Sscanf(s, "%dx%d", &headings, &strides); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("leonardo: grid %q is not of the form HxS (e.g. 16x8)", s)
	}
	return headings, strides, nil
}

// RepertoireParams maps the spec's repertoire knobs onto
// RepertoireParams — the same mapping NewRunner applies for
// KindRepertoire.
func (s RunSpec) RepertoireParams() (RepertoireParams, error) {
	p := RepertoireParams{
		Seed:           s.Seed,
		Batch:          s.Batch,
		MaxEvaluations: s.Evaluations,
		Workers:        s.Workers,
	}
	if s.Grid != "" {
		h, st, err := ParseGrid(s.Grid)
		if err != nil {
			return RepertoireParams{}, err
		}
		p.Headings, p.Strides = h, st
	}
	return p, nil
}

// base maps the spec's GA knobs onto Params, paper values where zero.
func (s RunSpec) base() Params {
	p := PaperParams(s.Seed)
	if s.Steps != 0 {
		p.Layout = genome.Layout{Steps: s.Steps, Legs: genome.Legs}
	}
	if s.Population != 0 {
		p.PopulationSize = s.Population
	}
	if s.Selection != 0 {
		p.SelectionThreshold = s.Selection
	}
	if s.Crossover != 0 {
		p.CrossoverThreshold = s.Crossover
	}
	if s.Mutations != 0 {
		p.MutationsPerGeneration = s.Mutations
	}
	if s.MaxGenerations != 0 {
		p.MaxGenerations = s.MaxGenerations
	}
	return p
}

// IslandParams maps the spec's archipelago knobs onto IslandParams —
// the same mapping NewRunner applies for KindIsland, exported so a
// cluster-configured service can shard the identical parameters across
// nodes (the sharded construction must match the single-node one for
// the distributed trajectory to replay).
func (s RunSpec) IslandParams() IslandParams {
	return IslandParams{
		Demes:        s.Islands,
		MigrateEvery: s.MigrateEvery,
		Topology:     island.Topology(s.Topology),
		Workers:      s.Workers,
		Base:         s.base(),
	}
}

// NewRunner validates the spec and constructs a fresh run of its kind.
// Parameter errors come back from the underlying constructors with the
// field that failed; a KindCluster spec returns ErrClusterSpec.
func (s RunSpec) NewRunner() (Runner, error) {
	k, ok := lookupKind(s.Kind)
	if !ok {
		return nil, fmt.Errorf("leonardo: unknown run kind %q (want %s)", s.Kind, kindList())
	}
	return k.fresh(s)
}

// SnapshotKind reports the kind tag of a snapshot without decoding its
// payload — the dispatch hook behind ResumeAny. Short or foreign input
// returns a typed error (engine.ErrTruncated / engine.ErrBadMagic),
// never a panic.
func SnapshotKind(snapshot []byte) (string, error) {
	return engine.SnapshotKind(snapshot)
}

// ResumeAny reconstructs a Runner of whatever kind the snapshot header
// names. The resumed run continues the original trajectory exactly,
// whichever kind it is; a KindCluster snapshot returns
// ErrClusterSnapshot.
func ResumeAny(snapshot []byte) (Runner, error) {
	kind, err := engine.SnapshotKind(snapshot)
	if err != nil {
		return nil, err
	}
	k, ok := lookupKind(kind)
	if !ok {
		return nil, fmt.Errorf("leonardo: unsupported snapshot kind %q (want %s)", kind, kindList())
	}
	return k.resume(snapshot)
}

// ErrClusterSpec and ErrClusterSnapshot are the KindCluster answers of
// NewRunner and ResumeAny: a cluster run needs a fleet placement and a
// migration transport, which neither a spec nor a snapshot carries.
var (
	ErrClusterSpec     = fmt.Errorf("leonardo: %q runs shard one archipelago across a leonardod fleet; submit the spec to every cluster-configured node (or use NewClusterRun with an explicit shard and transport)", KindCluster)
	ErrClusterSnapshot = fmt.Errorf("leonardo: %q snapshots are one node's shard of a distributed run; resume with ResumeCluster and a migration transport, or merge the fleet's shards with MergeClusterSnapshots first", KindCluster)
)

// runKind is one entry of the run-kind table: a kind tag, how to build
// a run of that kind fresh from a spec, and how to resume one from its
// snapshot.
type runKind struct {
	kind   string
	fresh  func(RunSpec) (Runner, error)
	resume func([]byte) (Runner, error)
}

// runKinds is the run-kind table: the one place a kind is registered
// for NewRunner and ResumeAny, in the order error messages list them.
var runKinds = []runKind{
	{
		kind:   KindGAP,
		fresh:  func(s RunSpec) (Runner, error) { return NewRun(s.base()) },
		resume: func(b []byte) (Runner, error) { return Resume(b) },
	},
	{
		kind:   KindIsland,
		fresh:  func(s RunSpec) (Runner, error) { return NewIslandRun(s.IslandParams()) },
		resume: func(b []byte) (Runner, error) { return ResumeIslands(b) },
	},
	{
		kind: KindCircuit,
		fresh: func(s RunSpec) (Runner, error) {
			if s.Generations <= 0 {
				return nil, fmt.Errorf("leonardo: circuit run needs generations > 0, got %d", s.Generations)
			}
			seeds := s.Seeds
			if len(seeds) == 0 {
				seeds = []uint64{s.Seed}
			}
			return NewCircuitRun(s.base(), seeds, s.Generations, s.MaxCycles)
		},
		resume: func(b []byte) (Runner, error) { return ResumeCircuit(b) },
	},
	{
		kind: KindLanePack,
		fresh: func(s RunSpec) (Runner, error) {
			p := s.IslandParams()
			if p.Demes == 0 {
				p.Demes = DefaultLanePackDemes
			}
			return NewLanePackRun(p)
		},
		resume: func(b []byte) (Runner, error) { return ResumeLanePack(b) },
	},
	{
		kind: KindRepertoire,
		fresh: func(s RunSpec) (Runner, error) {
			p, err := s.RepertoireParams()
			if err != nil {
				return nil, err
			}
			return NewRepertoireRun(p)
		},
		resume: func(b []byte) (Runner, error) { return ResumeRepertoire(b) },
	},
	{
		kind:   KindCluster,
		fresh:  func(RunSpec) (Runner, error) { return nil, ErrClusterSpec },
		resume: func([]byte) (Runner, error) { return nil, ErrClusterSnapshot },
	},
}

// lookupKind finds a kind's table entry.
func lookupKind(kind string) (runKind, bool) {
	for _, k := range runKinds {
		if k.kind == kind {
			return k, true
		}
	}
	return runKind{}, false
}

// kindList renders the registered kind tags for error messages:
// "a", "b", or "c".
func kindList() string {
	kinds := make([]string, len(runKinds))
	for i, k := range runKinds {
		kinds[i] = strconv.Quote(k.kind)
	}
	return strings.Join(kinds[:len(kinds)-1], ", ") + ", or " + kinds[len(kinds)-1]
}
