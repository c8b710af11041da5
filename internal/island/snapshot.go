package island

import (
	"fmt"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
	"leonardo/internal/genome"
)

// Checkpointing for the archipelago. A snapshot is the archipelago
// header — resolved parameters plus the migration cursor — followed by
// one length-prefixed sub-snapshot per deme, each a complete snapshot
// in its own kind ("gap" for behavioural demes, "lanedemes" for a
// single-lane gate-level group). Restore dispatches on each
// sub-snapshot's kind. Snapshots are only valid at epoch boundaries,
// which the engine loop guarantees between Steps.

// SnapKind is the kind tag of an archipelago snapshot header.
const SnapKind = "island"

const snapVersion = 1

// encodeHeader writes the archipelago parameter header — the exact
// byte layout shared by the "island" and "cluster" kinds, which is what
// lets MergeShardSnapshots reassemble shard snapshots into a
// byte-identical single-node snapshot.
func encodeHeader(e *engine.Enc, p Params) {
	e.Int(p.Demes)
	e.Int(p.MigrateEvery)
	e.Blob([]byte(p.Topology))
	// Base parameters, mirrored from the gap snapshot layout (the
	// objective and any warm-start population are not serialized, as
	// there).
	e.Int(p.Base.Layout.Steps)
	e.Int(p.Base.Layout.Legs)
	e.Int(p.Base.PopulationSize)
	e.F64(p.Base.SelectionThreshold)
	e.F64(p.Base.CrossoverThreshold)
	e.Int(p.Base.MutationsPerGeneration)
	e.Int(p.Base.MaxGenerations)
	e.U64(p.Base.Seed)
	e.Bool(p.Base.RecordHistory)
}

// decodeHeader reads the parameter header written by encodeHeader. obj
// is attached as the per-deme objective (nil means the paper's
// three-rule evaluator).
func decodeHeader(d *engine.Dec, obj gap.Objective) Params {
	return Params{
		Demes:        d.Int(),
		MigrateEvery: d.Int(),
		Topology:     Topology(d.Blob()),
		Base: gap.Params{
			Layout:                 genome.Layout{Steps: d.Int(), Legs: d.Int()},
			PopulationSize:         d.Int(),
			SelectionThreshold:     d.F64(),
			CrossoverThreshold:     d.F64(),
			MutationsPerGeneration: d.Int(),
			MaxGenerations:         d.Int(),
			Seed:                   d.U64(),
			RecordHistory:          d.Bool(),
			Objective:              obj,
		},
	}
}

// validateHeader rejects decoded parameters that a constructor could
// never have produced (defaults are resolved at construction, before
// any snapshot is taken).
func validateHeader(p Params, epochs, migrants int) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("island: snapshot parameters invalid: %w", err)
	}
	if p.MigrateEvery <= 0 || p.Base.MaxGenerations <= 0 {
		return fmt.Errorf("island: snapshot has unresolved defaults (interval %d, cap %d)",
			p.MigrateEvery, p.Base.MaxGenerations)
	}
	if epochs < 0 || migrants < 0 {
		return fmt.Errorf("island: snapshot cursor (%d epochs, %d migrants) is negative", epochs, migrants)
	}
	return nil
}

// Snapshot serializes the complete archipelago state. A plain
// archipelago snapshots as the "island" kind; a shard (NewShard /
// RestoreShard) as the "cluster" kind, which additionally records the
// fleet placement and carries only the local demes.
func (a *Archipelago) Snapshot() []byte {
	if a.shard != nil {
		return a.shardSnapshot()
	}
	e := engine.NewEnc(SnapKind, snapVersion)
	encodeHeader(e, a.p)
	// Migration cursor.
	e.Int(a.epochs)
	e.Int(a.migrants)
	// Per-deme sub-snapshots, in deme index order.
	for _, d := range a.demes {
		e.Blob(d.Snapshot())
	}
	return e.Bytes()
}

// Restore rebuilds an archipelago from a Snapshot. obj supplies the
// per-deme objective exactly as in gap.Restore (nil means the paper's
// three-rule evaluator); it must match the original run's objective for
// the continuation to be meaningful. The restored archipelago continues
// bit-identically to one that was never interrupted.
func Restore(data []byte, obj gap.Objective) (*Archipelago, error) {
	d, err := engine.NewDec(data, SnapKind)
	if err != nil {
		return nil, err
	}
	if d.Version != snapVersion {
		return nil, fmt.Errorf("island: snapshot version %d, want %d", d.Version, snapVersion)
	}
	p := decodeHeader(d, obj)
	epochs := d.Int()
	migrants := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := validateHeader(p, epochs, migrants); err != nil {
		return nil, err
	}
	demes := make([]Deme, p.Demes)
	for i := range demes {
		sub := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		dm, err := restoreDeme(sub, obj, i)
		if err != nil {
			return nil, err
		}
		demes[i] = dm
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &Archipelago{
		p:        p,
		obj:      resolveObjective(p.Base),
		demes:    demes,
		epochs:   epochs,
		migrants: migrants,
	}, nil
}

// restoreDeme rebuilds deme i (global index, for error context) from
// its sub-snapshot, dispatching on the sub-snapshot's kind.
func restoreDeme(sub []byte, obj gap.Objective, i int) (Deme, error) {
	kind, err := engine.SnapshotKind(sub)
	if err != nil {
		return nil, fmt.Errorf("island: deme %d: %w", i, err)
	}
	switch kind {
	case "gap":
		g, err := gap.Restore(sub, obj)
		if err != nil {
			return nil, fmt.Errorf("island: deme %d: %w", i, err)
		}
		return g, nil
	case "lanedemes":
		// A single-lane group round-trips as an ordinary deme (its
		// view's Snapshot is the group snapshot). A multi-lane group
		// embedded per deme would duplicate the shared simulator; such
		// archipelagos snapshot through the "lanepack" kind instead.
		g, err := gapcirc.RestoreLaneDemes(sub)
		if err != nil {
			return nil, fmt.Errorf("island: deme %d: %w", i, err)
		}
		if g.NumDemes() != 1 {
			return nil, fmt.Errorf("island: deme %d is a %d-lane group; lane-packed archipelagos restore via RestoreLanePack",
				i, g.NumDemes())
		}
		return g.Demes()[0], nil
	default:
		return nil, fmt.Errorf("island: deme %d has unknown snapshot kind %q", i, kind)
	}
}
