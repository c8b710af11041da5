// Package island implements island-model (archipelago) evolution on
// top of the shared run engine: N demes — independent evolution
// processes, each with its own CA-RNG stream — run concurrently and
// exchange their champions on a fixed migration schedule. This is the
// canonical scale-out for the paper's GA shape: the single 32-genome
// on-chip population becomes an archipelago of such populations, one
// per hardware unit, with the ring migration the only coupling.
//
// Determinism rules (DESIGN.md §9):
//
//   - deme seeds derive from the master seed via splitmix64 (DemeSeed),
//     so the whole archipelago is a pure function of its Params;
//   - between migration barriers demes share no state, so stepping them
//     on any number of engine.Map workers yields identical per-deme
//     states — Map commits results in index order;
//   - at a barrier, migration runs single-threaded in deme index order,
//     emigrants are latched before any replacement happens, and the
//     receiving deme draws its replacement tournament on its own CA
//     stream — every random decision is owned by exactly one deme and
//     is therefore captured by that deme's snapshot.
//
// Consequently an archipelago replays bit-identically across worker
// counts, processes, and snapshot/resume boundaries (the differential
// tests in this package pin all three).
//
// This package is replay-critical: runs must replay bit-identically
// across processes and resumes (leolint enforces DESIGN.md §8).
//
//leo:deterministic
package island

import (
	"context"
	"fmt"
	"sort"

	"leonardo/internal/engine"
	"leonardo/internal/fitness"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
)

// Topology names the migration graph of the archipelago.
type Topology string

const (
	// Ring sends deme i's champion to deme (i+1) mod N at every
	// migration barrier — the paper-era standard for island GAs.
	Ring Topology = "ring"
	// Isolated runs the demes side by side with no migration at all
	// (the baseline the ring is measured against).
	Isolated Topology = "none"
)

// DefaultMigrateEvery is the migration interval used when Params leaves
// MigrateEvery zero: one exchange every 10 generations keeps demes
// loosely coupled while migration stays a negligible fraction of the
// evolutionary work.
const DefaultMigrateEvery = 10

// MaxDemes bounds the archipelago size (and what Restore accepts).
const MaxDemes = 1 << 12

// Params configures an archipelago. Base carries the per-deme GAP
// parameters; Base.Seed is the master seed every deme seed is derived
// from.
//
//leo:snapshot
type Params struct {
	// Demes is the number of islands (at least 1).
	Demes int
	// MigrateEvery is the number of generations between migration
	// barriers (0 means DefaultMigrateEvery). It is also the engine
	// step granularity: one Archipelago.Step advances every deme by
	// MigrateEvery generations, so cancellation and snapshots land on
	// epoch boundaries.
	MigrateEvery int
	// Topology is the migration graph ("" means Ring).
	Topology Topology
	// Workers bounds the engine.Map pool that steps demes concurrently
	// (0 means GOMAXPROCS). It never affects the trajectory — only wall
	// time — and is re-chosen per process.
	//
	//leo:allow snapcodec runtime worker bound; never affects the trajectory, re-chosen per process
	Workers int
	// Base is the per-deme GAP configuration. Base.Seed is the master
	// seed; each deme runs on DemeSeed(Base.Seed, i). An
	// InitialPopulation, if any, warm-starts every deme.
	Base gap.Params
}

// Validate reports whether the archipelago parameters are usable.
func (p Params) Validate() error {
	if p.Demes < 1 {
		return fmt.Errorf("island: archipelago needs at least 1 deme, got %d", p.Demes)
	}
	if p.Demes > MaxDemes {
		return fmt.Errorf("island: %d demes exceed the maximum %d", p.Demes, MaxDemes)
	}
	if p.MigrateEvery < 0 {
		return fmt.Errorf("island: negative migration interval %d", p.MigrateEvery)
	}
	switch p.Topology {
	case Ring, Isolated, "":
	default:
		return fmt.Errorf("island: unknown topology %q", p.Topology)
	}
	if err := p.Base.Validate(); err != nil {
		return fmt.Errorf("island: deme parameters: %w", err)
	}
	return nil
}

// DemeSeed derives deme i's CA seed from the master seed by one
// splitmix64 round over master + (i+1)·golden-ratio. splitmix64 is a
// bijective finalizer, so distinct demes always get distinct seeds, and
// the derivation is documented here precisely so external tools can
// reproduce any deme's stream from the master seed alone.
func DemeSeed(master uint64, deme int) uint64 {
	z := master + (uint64(deme)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Deme is one island: a stepper that exposes its champion, accepts
// immigrants, and can checkpoint itself. *gap.GAP and
// *gapcirc.LaneDeme both satisfy it.
type Deme interface {
	engine.Stepper
	// Snapshot serializes the deme with the engine codec; Restore
	// dispatches on the snapshot kind to rebuild it.
	Snapshot() []byte
	// Best returns the deme's best individual and its fitness.
	Best() (genome.Extended, int)
	// Immigrate offers the deme a champion from another island; the
	// deme draws its own replacement decision.
	Immigrate(genome.Extended) error
}

// converger is the optional convergence probe: gap demes report
// reaching the objective maximum, which ends the archipelago run.
type converger interface{ Converged() bool }

// DemeEvent pairs a deme index with that deme's per-generation
// telemetry.
type DemeEvent struct {
	Deme  int
	Event engine.Event
}

// DemeObserver consumes per-deme telemetry. The archipelago delivers
// events strictly in deme index order after each epoch, never
// concurrently.
type DemeObserver interface {
	OnDemeGeneration(DemeEvent)
}

// DemeObserverFunc adapts a function to the DemeObserver interface.
type DemeObserverFunc func(DemeEvent)

// OnDemeGeneration implements DemeObserver.
func (f DemeObserverFunc) OnDemeGeneration(ev DemeEvent) { f(ev) }

// Archipelago runs N demes under the engine contract: it is itself an
// engine.Stepper whose Step advances every deme by one epoch
// (MigrateEvery generations, concurrently via engine.Map) and then
// migrates at the barrier. Create with New (gap demes), NewShard (one
// node's slice of a fleet), or NewLanePack (gate-level lane demes);
// restore with Restore, RestoreShard, or RestoreLanePack.
type Archipelago struct {
	p     Params
	obj   gap.Objective
	demes []Deme

	// Sharding state: a plain archipelago owns all p.Demes demes
	// (shard nil, offset 0, tr nil meaning Loopback). A shard built by
	// NewShard or RestoreShard owns the contiguous global range
	// [offset, offset+len(demes)) and exchanges migrants through tr.
	shard  *Shard
	offset int
	tr     Transport

	epochs   int // completed epochs (the migration cursor)
	migrants int // immigrants accepted locally so far

	// fleetDone records that the epoch barrier reported some shard in
	// the fleet finished; for the loopback transport it simply mirrors
	// the local done status.
	fleetDone bool

	// DemeObs, if non-nil, receives every deme's per-generation events
	// in deme index order after each epoch. Aggregate events still flow
	// through the engine loop's Observer as usual.
	DemeObs DemeObserver
}

// New builds an archipelago of p.Demes behavioural GAP demes, deme i
// seeded with DemeSeed(p.Base.Seed, i).
func New(p Params) (*Archipelago, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	demes, err := gapDemes(p, 0, p.Demes)
	if err != nil {
		return nil, err
	}
	return &Archipelago{p: p, obj: resolveObjective(p.Base), demes: demes}, nil
}

// gapDemes builds the behavioural GAP demes of global indices
// [lo, hi), deme i seeded with DemeSeed(p.Base.Seed, i).
func gapDemes(p Params, lo, hi int) ([]Deme, error) {
	demes := make([]Deme, hi-lo)
	for i := range demes {
		bp := p.Base
		bp.Seed = DemeSeed(p.Base.Seed, lo+i)
		g, err := gap.New(bp)
		if err != nil {
			return nil, fmt.Errorf("island: deme %d: %w", lo+i, err)
		}
		demes[i] = g
	}
	return demes, nil
}

// NewShard builds this node's shard of a fleet-wide archipelago: the
// behavioural GAP demes in sh.Range(p.Demes), each seeded with
// DemeSeed(p.Base.Seed, globalIndex) — exactly the seed the same deme
// would get in a single-node run, which is what makes the K-node and
// 1-node trajectories comparable deme for deme. tr carries migration
// traffic (nil means Loopback, only sensible for sh.Nodes == 1).
func NewShard(p Params, sh Shard, tr Transport) (*Archipelago, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	if err := sh.Validate(p.Demes); err != nil {
		return nil, err
	}
	lo, hi := sh.Range(p.Demes)
	demes, err := gapDemes(p, lo, hi)
	if err != nil {
		return nil, err
	}
	s := sh
	return &Archipelago{p: p, obj: resolveObjective(p.Base), demes: demes,
		shard: &s, offset: lo, tr: tr}, nil
}

// withDefaults fills the zero-value knobs exactly once, at
// construction, so Snapshot records the resolved values.
func (p Params) withDefaults() Params {
	if p.Topology == "" {
		p.Topology = Ring
	}
	if p.MigrateEvery == 0 {
		p.MigrateEvery = DefaultMigrateEvery
	}
	if p.Base.MaxGenerations == 0 {
		p.Base.MaxGenerations = gap.DefaultMaxGenerations
	}
	return p
}

// resolveObjective mirrors gap.New: a nil objective means the paper's
// three-rule evaluator for the layout.
func resolveObjective(base gap.Params) gap.Objective {
	if base.Objective != nil {
		return base.Objective
	}
	return fitness.Evaluator{Layout: base.Layout, Weights: fitness.DefaultWeights}
}

// Params returns the archipelago configuration (defaults resolved) —
// useful after Restore, where the caller never held the original value.
func (a *Archipelago) Params() Params { return a.p }

// SetWorkers re-chooses the worker bound (0 = GOMAXPROCS). Workers is
// pure scheduling — it never changes the trajectory — so it is safe to
// set on a restored archipelago, and it is the one parameter a resume
// does not inherit from the snapshot.
func (a *Archipelago) SetWorkers(n int) { a.p.Workers = n }

// Demes returns the number of local islands (for a shard, the slice
// this node owns; Params().Demes is the global count).
func (a *Archipelago) Demes() int { return len(a.demes) }

// Shard returns the fleet placement and true if this archipelago is a
// shard of a distributed run.
func (a *Archipelago) Shard() (Shard, bool) {
	if a.shard == nil {
		return Shard{}, false
	}
	return *a.shard, true
}

// transport returns the migration transport, defaulting to Loopback so
// archipelagos built before sharding existed (and restored "island"
// snapshots) behave exactly as they always did.
func (a *Archipelago) transport() Transport {
	if a.tr == nil {
		return Loopback{}
	}
	return a.tr
}

// Deme returns island i (for inspection; mutating it mid-run breaks
// replay).
func (a *Archipelago) Deme(i int) Deme { return a.demes[i] }

// Epochs returns how many epochs (migration barriers) have completed.
func (a *Archipelago) Epochs() int { return a.epochs }

// Migrations returns how many immigrants have been accepted so far.
func (a *Archipelago) Migrations() int { return a.migrants }

// Step implements engine.Stepper: one epoch. Every deme advances by up
// to MigrateEvery generations — concurrently, on the bounded engine.Map
// pool — then the barrier migration runs single-threaded in deme index
// order. Because demes share no state between barriers and Map commits
// results in index order, the trajectory is identical for every worker
// count.
func (a *Archipelago) Step() error {
	events, err := engine.Map(nil, a.p.Workers, len(a.demes), func(i int) ([]engine.Event, error) {
		d := a.demes[i]
		var obs engine.Observer
		var rec *engine.Recorder
		if a.DemeObs != nil {
			rec = &engine.Recorder{}
			obs = rec
		}
		if err := engine.Steps(nil, d, obs, a.p.MigrateEvery); err != nil {
			return nil, err
		}
		if rec == nil {
			return nil, nil
		}
		return rec.Events(), nil
	})
	if err != nil {
		return err
	}
	if a.DemeObs != nil {
		for i, evs := range events {
			for _, ev := range evs {
				a.DemeObs.OnDemeGeneration(DemeEvent{Deme: a.offset + i, Event: ev})
			}
		}
	}
	a.epochs++
	if err := a.migrate(); err != nil {
		return err
	}
	// Done handshake: a deme finishing anywhere in the fleet ends the
	// archipelago in this epoch, exactly as a local deme finishing ends
	// a single-node run. For Loopback this just mirrors localDone.
	fleet, err := a.transport().Barrier(a.epochs, a.localDone())
	if err != nil {
		return fmt.Errorf("island: epoch %d barrier: %w", a.epochs, err)
	}
	a.fleetDone = fleet
	return nil
}

// migrate runs the barrier exchange — the single latch-then-commit
// implementation every transport shares. Every local deme's champion is
// latched first (so replacements cannot cascade within one barrier) and
// handed to the transport as epoch-stamped emigrants addressed ring-wise
// to global deme (g+1) mod Demes; the returned immigrants — however they
// travelled — are committed in global source order, each via the
// destination deme's own tournament draw. Demes that already finished
// keep their final population untouched.
func (a *Archipelago) migrate() error {
	global := a.p.Demes
	if a.p.Topology != Ring || global < 2 {
		return nil
	}
	out := make([]Emigrant, len(a.demes))
	for i, d := range a.demes {
		b, _ := d.Best()
		g := a.offset + i
		out[i] = Emigrant{Epoch: a.epochs, From: g, To: (g + 1) % global, Genome: b.Clone()}
	}
	in, err := a.transport().Exchange(a.epochs, out)
	if err != nil {
		return fmt.Errorf("island: epoch %d exchange: %w", a.epochs, err)
	}
	// Each global deme emigrates at most once per epoch, so sorting by
	// source index makes the commit order unique regardless of how the
	// transport interleaved batches.
	sort.Slice(in, func(i, j int) bool { return in[i].From < in[j].From })
	for _, e := range in {
		li := e.To - a.offset
		if li < 0 || li >= len(a.demes) {
			return fmt.Errorf("island: immigrant %d -> %d lands outside local demes [%d, %d)",
				e.From, e.To, a.offset, a.offset+len(a.demes))
		}
		dst := a.demes[li]
		if dst.Done() {
			continue
		}
		if err := dst.Immigrate(e.Genome); err != nil {
			return fmt.Errorf("island: migration %d -> %d: %w", e.From, e.To, err)
		}
		a.migrants++
	}
	return nil
}

// localDone reports whether any local deme is finished.
func (a *Archipelago) localDone() bool {
	for _, d := range a.demes {
		if d.Done() {
			return true
		}
	}
	return false
}

// Done implements engine.Stepper: the archipelago is finished as soon
// as any deme is — a converged deme ends the whole search (its champion
// is the answer), an exhausted one means the budget ran out. For a
// shard, a deme finishing on any other node counts too (learned at the
// epoch barrier).
func (a *Archipelago) Done() bool {
	return a.fleetDone || a.localDone()
}

// Event implements engine.Stepper with the aggregate telemetry of the
// most recent epoch: Generation is the slowest deme's counter, BestEver
// and BestFitness the maxima across demes, the counters are summed, and
// MeanFitness is the mean of the deme means.
func (a *Archipelago) Event() engine.Event {
	var ev engine.Event
	for i, d := range a.demes {
		de := d.Event()
		if i == 0 || de.Generation < ev.Generation {
			ev.Generation = de.Generation
		}
		if de.BestEver > ev.BestEver {
			ev.BestEver = de.BestEver
		}
		if de.BestFitness > ev.BestFitness {
			ev.BestFitness = de.BestFitness
		}
		ev.MeanFitness += de.MeanFitness
		ev.Evaluations += de.Evaluations
		ev.Draws += de.Draws
		ev.Tournaments += de.Tournaments
		ev.Crossovers += de.Crossovers
		ev.Mutations += de.Mutations
		ev.Cycle += de.Cycle
		ev.LanesDone += de.LanesDone
	}
	ev.MeanFitness /= float64(len(a.demes))
	return ev
}

// Result summarizes the archipelago so far; valid at any epoch
// boundary.
type Result struct {
	// Converged is true once any deme reached its objective maximum.
	Converged bool
	// Generations is the slowest deme's completed generation count.
	Generations int
	// Best is the best individual across all demes; BestDeme is the
	// island that holds it.
	Best        genome.Extended
	BestFitness int
	BestDeme    int
	// MaxFitness is the objective's maximum (0 if the archipelago was
	// assembled from demes with unknown objectives).
	MaxFitness int
	// Draws sums the random samples consumed by all demes.
	Draws uint64
	// Migrations counts accepted immigrants across all barriers.
	Migrations int
}

// Result reports the archipelago outcome so far.
func (a *Archipelago) Result() Result {
	r := Result{Migrations: a.migrants}
	if a.obj != nil {
		r.MaxFitness = a.obj.Max()
	}
	for i, d := range a.demes {
		b, f := d.Best()
		if i == 0 || f > r.BestFitness {
			r.Best = b.Clone()
			r.BestFitness = f
			r.BestDeme = i
		}
		ev := d.Event()
		if i == 0 || ev.Generation < r.Generations {
			r.Generations = ev.Generation
		}
		r.Draws += ev.Draws
		if c, ok := d.(converger); ok && c.Converged() {
			r.Converged = true
		}
	}
	return r
}

// RunCtx drives the archipelago to completion under ctx, reporting one
// aggregate Event per epoch to obs (nil for none). Cancellation lands
// on the next epoch boundary; the partial Result stays valid and the
// run can continue — from this value or from a Snapshot.
func (a *Archipelago) RunCtx(ctx context.Context, obs engine.Observer) (Result, error) {
	err := engine.Run(ctx, a, obs)
	return a.Result(), err
}
