package island

import (
	"bytes"
	"context"
	"testing"

	"leonardo/internal/fitness"
	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
)

// Compile-time wiring: a lane view is a full citizen of the island
// model, immigration included.
var _ Deme = (*gapcirc.LaneDeme)(nil)

// lanePackParams returns a small-but-real archipelago configuration:
// ring migration every 5 generations, 30-generation budget, 8-genome
// populations.
func lanePackParams(demes int, master uint64) Params {
	base := gap.PaperParams(master)
	base.PopulationSize = 8
	base.MaxGenerations = 30
	return Params{Demes: demes, MigrateEvery: 5, Base: base}
}

// scalarLaneArchipelago builds the scalar comparator: an archipelago
// whose deme i is a single-lane gapcirc group over DemeSeed(master, i)
// — the same circuit, the same seeds, but each deme alone in its own
// simulator. Bit-identity against this proves the lane packing (the
// shared clock and freeze choreography) perturbs no deme's trajectory.
func scalarLaneArchipelago(t *testing.T, p Params) (*Archipelago, []*gapcirc.LaneDemes) {
	t.Helper()
	p = p.withDefaults()
	groups := make([]*gapcirc.LaneDemes, p.Demes)
	demes := make([]Deme, p.Demes)
	for i := range demes {
		g, err := gapcirc.NewLaneDemes(p.Base, gapcirc.BuildOpts{}, []uint64{DemeSeed(p.Base.Seed, i)})
		if err != nil {
			t.Fatalf("scalar deme %d: %v", i, err)
		}
		groups[i] = g
		demes[i] = g.Demes()[0]
	}
	return &Archipelago{p: p, obj: resolveObjective(p.Base), demes: demes}, groups
}

// compareLanePackToScalar asserts bit-identity between a lane-packed
// archipelago and the scalar comparator: per-deme best registers and
// complete basis populations.
func compareLanePackToScalar(t *testing.T, lp *LanePack, scalar []*gapcirc.LaneDemes) {
	t.Helper()
	for i := range scalar {
		lb, lf := lp.group.BestLane(i)
		sb, sf := scalar[i].BestLane(0)
		if lb != sb || lf != sf {
			t.Fatalf("deme %d: lane-packed best %v/%d, scalar %v/%d", i, lb, lf, sb, sf)
		}
		lpop := lp.group.ReadBasisLane(i)
		spop := scalar[i].ReadBasisLane(0)
		for j := range lpop {
			if lpop[j] != spop[j] {
				t.Fatalf("deme %d individual %d: lane-packed %v, scalar %v", i, j, lpop[j], spop[j])
			}
		}
	}
}

// TestLanePackMatchesScalarArchipelago is the headline differential: a
// lane-packed archipelago run to completion replays, deme by deme and
// bit for bit, an archipelago of single-lane groups over the same
// master seed — populations, best registers, migration count, and the
// aggregate result all match.
func TestLanePackMatchesScalarArchipelago(t *testing.T) {
	p := lanePackParams(6, 1234)

	lp, err := NewLanePack(p)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := lp.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	sa, groups := scalarLaneArchipelago(t, p)
	sr, err := sa.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	compareLanePackToScalar(t, lp, groups)
	if lr.BestFitness != sr.BestFitness || lr.Best.Packed() != sr.Best.Packed() || lr.BestDeme != sr.BestDeme {
		t.Fatalf("results diverge: lane-packed %+v, scalar %+v", lr, sr)
	}
	if lr.Generations != sr.Generations || lr.Migrations != sr.Migrations {
		t.Fatalf("cursors diverge: lane-packed gen %d / %d migrants, scalar gen %d / %d migrants",
			lr.Generations, lr.Migrations, sr.Generations, sr.Migrations)
	}
	if lr.Migrations == 0 {
		t.Fatal("no migrations happened; the differential never exercised the ring barrier")
	}
	if lp.Epochs() != sa.Epochs() {
		t.Fatalf("epochs diverge: lane-packed %d, scalar %d", lp.Epochs(), sa.Epochs())
	}
}

// TestLanePackWorkerInvariance pins the determinism claim the group
// mutex provides: the trajectory is identical for every worker count.
func TestLanePackWorkerInvariance(t *testing.T) {
	p := lanePackParams(5, 77)
	var first []byte
	for _, workers := range []int{1, 3, 8} {
		pw := p
		pw.Workers = workers
		lp, err := NewLanePack(pw)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			if err := lp.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := lp.group.Snapshot()
		if first == nil {
			first = snap
		} else if !bytes.Equal(first, snap) {
			t.Fatalf("trajectory depends on worker count (%d workers diverged)", workers)
		}
	}
}

// TestLanePackSnapshotResume proves resume transparency: a lane pack
// snapshotted mid-run and restored finishes bit-identically both to
// its own uninterrupted twin and to the scalar comparator.
func TestLanePackSnapshotResume(t *testing.T) {
	p := lanePackParams(4, 99)

	lp, err := NewLanePack(p)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if err := lp.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob := lp.Snapshot()

	if _, err := lp.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	r, err := RestoreLanePack(blob)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epochs() != 2 || r.Params().Demes != p.Demes {
		t.Fatalf("restored pack at epoch %d with %d demes, want 2 and %d",
			r.Epochs(), r.Params().Demes, p.Demes)
	}
	if _, err := r.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(lp.Snapshot(), r.Snapshot()) {
		t.Fatal("resumed lane pack's final snapshot differs from the uninterrupted run's")
	}

	sa, groups := scalarLaneArchipelago(t, p)
	if _, err := sa.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	compareLanePackToScalar(t, r, groups)
	if r.Migrations() != sa.Migrations() {
		t.Fatalf("resumed pack accepted %d migrants, scalar %d", r.Migrations(), sa.Migrations())
	}
}

// TestLanePackValidation pins the constructor's checks.
func TestLanePackValidation(t *testing.T) {
	p := lanePackParams(MaxLaneDemes+1, 1)
	if _, err := NewLanePack(p); err == nil {
		t.Fatal("oversized lane pack should be rejected")
	}
	p = lanePackParams(2, 1)
	p.Base.Objective = unreachable{fitness.New()}
	if _, err := NewLanePack(p); err == nil {
		t.Fatal("custom objective should be rejected (fitness is in circuit logic)")
	}
}
