package island

import (
	"fmt"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
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
// gate-level simulator. It is the embedded Archipelago — stepping,
// observers, Result, and RunCtx are that archipelago's — plus a
// Snapshot that stores the shared simulator once instead of once per
// deme. Never snapshot the embedded Archipelago directly: only
// LanePack.Snapshot writes a restorable lane-packed run.
type LanePack struct {
	*Archipelago
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
	return newLanePack(p, group, 0, 0), nil
}

// newLanePack wraps an existing lane-deme group in the archipelago
// machinery with the given migration cursor. p is validated, has its
// defaults resolved, and p.Demes equals the group's lane count.
func newLanePack(p Params, group *gapcirc.LaneDemes, epochs, migrants int) *LanePack {
	views := group.Demes()
	demes := make([]Deme, len(views))
	for i, v := range views {
		demes[i] = v
	}
	a := &Archipelago{p: p, obj: resolveObjective(p.Base), demes: demes, epochs: epochs, migrants: migrants}
	return &LanePack{Archipelago: a, group: group}
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
	a := lp.Archipelago
	e := engine.NewEnc(LanePackSnapKind, lanePackSnapVersion)
	e.Int(a.p.Demes)
	e.Int(a.p.MigrateEvery)
	e.Blob([]byte(a.p.Topology))
	gap.EncodeParams(e, a.p.Base)
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
		Base:         gap.DecodeParams(d),
	}
	epochs := d.Int()
	migrants := d.Int()
	sub := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := validateHeader(p, epochs, migrants); err != nil {
		return nil, err
	}
	if p.Demes > MaxLaneDemes {
		return nil, fmt.Errorf("island: lanepack snapshot has %d demes, capacity is %d", p.Demes, MaxLaneDemes)
	}
	group, err := gapcirc.RestoreLaneDemes(sub)
	if err != nil {
		return nil, err
	}
	if group.NumDemes() != p.Demes {
		return nil, fmt.Errorf("island: lanepack snapshot header says %d demes, the group holds %d", p.Demes, group.NumDemes())
	}
	return newLanePack(p, group, epochs, migrants), nil
}
