package island

import (
	"fmt"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
)

// Checkpointing for the archipelago. A snapshot is the archipelago
// header — resolved parameters plus the migration cursor — followed by
// one length-prefixed "gap" sub-snapshot per deme. Gate-level demes
// never appear here: a lane-packed archipelago stores its shared
// simulator once, under the "lanepack" kind (lanepack.go). Snapshots
// are only valid at epoch boundaries, which the engine loop guarantees
// between Steps.

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
	// Base parameters, in the gap snapshot layout (the objective and
	// any warm-start population are not serialized, as there).
	gap.EncodeParams(e, p.Base)
	e.Bool(p.Base.RecordHistory)
}

// decodeHeader reads the parameter header written by encodeHeader. obj
// is attached as the per-deme objective (nil means the paper's
// three-rule evaluator).
func decodeHeader(d *engine.Dec, obj gap.Objective) Params {
	p := Params{
		Demes:        d.Int(),
		MigrateEvery: d.Int(),
		Topology:     Topology(d.Blob()),
		Base:         gap.DecodeParams(d),
	}
	p.Base.RecordHistory = d.Bool()
	p.Base.Objective = obj
	return p
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
// its "gap" sub-snapshot.
func restoreDeme(sub []byte, obj gap.Objective, i int) (Deme, error) {
	g, err := gap.Restore(sub, obj)
	if err != nil {
		return nil, fmt.Errorf("island: deme %d: %w", i, err)
	}
	return g, nil
}
