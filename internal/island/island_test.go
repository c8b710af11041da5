package island

import (
	"bytes"
	"context"
	"testing"

	"leonardo/internal/engine"
	"leonardo/internal/fitness"
	"leonardo/internal/gap"
)

// unreachable wraps the paper evaluator with an unattainable maximum so
// runs never converge early — the fixture for fixed-length trajectories.
type unreachable struct{ fitness.Evaluator }

func (unreachable) Max() int { return 1 << 30 }

func testParams(seed uint64) Params {
	return Params{
		Demes:        4,
		MigrateEvery: 5,
		Topology:     Ring,
		Base:         gap.PaperParams(seed),
	}
}

// endlessParams is testParams with an unreachable objective and a high
// generation cap: every epoch runs its full MigrateEvery generations.
func endlessParams(seed uint64) Params {
	p := testParams(seed)
	p.Base.Objective = unreachable{fitness.New()}
	p.Base.MaxGenerations = 1 << 20
	return p
}

func TestDemeSeedsDistinct(t *testing.T) {
	for _, master := range []uint64{0, 1, 42, ^uint64(0)} {
		seen := map[uint64]int{}
		for i := 0; i < 256; i++ {
			s := DemeSeed(master, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("master %d: demes %d and %d collide on seed %#x", master, prev, i, s)
			}
			seen[s] = i
		}
	}
	if DemeSeed(7, 0) != DemeSeed(7, 0) {
		t.Fatal("DemeSeed is not deterministic")
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"baseline", func(p *Params) {}, true},
		{"one deme", func(p *Params) { p.Demes = 1 }, true},
		{"isolated", func(p *Params) { p.Topology = Isolated }, true},
		{"default topology", func(p *Params) { p.Topology = "" }, true},
		{"zero demes", func(p *Params) { p.Demes = 0 }, false},
		{"negative demes", func(p *Params) { p.Demes = -3 }, false},
		{"too many demes", func(p *Params) { p.Demes = MaxDemes + 1 }, false},
		{"negative interval", func(p *Params) { p.MigrateEvery = -1 }, false},
		{"unknown topology", func(p *Params) { p.Topology = "torus" }, false},
		{"bad base population", func(p *Params) { p.Base.PopulationSize = 0 }, false},
	}
	for _, tc := range cases {
		p := testParams(1)
		tc.mutate(&p)
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestArchipelagoConverges runs the paper objective across a small ring
// and checks the champion reaches the maximum rule fitness.
func TestArchipelagoConverges(t *testing.T) {
	a, err := New(testParams(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("archipelago did not converge: %+v", res)
	}
	if res.BestFitness != res.MaxFitness {
		t.Fatalf("best fitness %d, want maximum %d", res.BestFitness, res.MaxFitness)
	}
	if res.BestDeme < 0 || res.BestDeme >= a.Demes() {
		t.Fatalf("best deme %d out of range", res.BestDeme)
	}
	if got := fitness.New().ScoreExtended(res.Best); got != res.BestFitness {
		t.Fatalf("champion rescores to %d, result says %d", got, res.BestFitness)
	}
}

// TestMigrationSchedule pins the migration cursor: a ring archipelago
// accepts one immigrant per deme per epoch while no deme is finished,
// and an isolated one accepts none.
func TestMigrationSchedule(t *testing.T) {
	p := endlessParams(3)
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 6
	if err := engine.Steps(context.Background(), a, nil, epochs); err != nil {
		t.Fatal(err)
	}
	if want := epochs * p.Demes; a.Migrations() != want {
		t.Fatalf("ring accepted %d migrants, want %d", a.Migrations(), want)
	}
	if a.Epochs() != epochs {
		t.Fatalf("epoch cursor %d, want %d", a.Epochs(), epochs)
	}

	p.Topology = Isolated
	iso, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Steps(context.Background(), iso, nil, epochs); err != nil {
		t.Fatal(err)
	}
	if iso.Migrations() != 0 {
		t.Fatalf("isolated archipelago accepted %d migrants", iso.Migrations())
	}
}

// TestDemeObserverOrdering checks that per-deme telemetry arrives in
// deme index order with per-deme generations increasing — i.e. the
// barrier serializes observation no matter how demes were scheduled.
func TestDemeObserverOrdering(t *testing.T) {
	p := endlessParams(5)
	p.Workers = 8
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	lastDeme := -1
	lastGen := make(map[int]int)
	a.DemeObs = DemeObserverFunc(func(ev DemeEvent) {
		if ev.Deme < lastDeme {
			// A smaller deme index may only restart at an epoch boundary.
			if ev.Event.Generation <= lastGen[ev.Deme] {
				t.Errorf("deme %d regressed to generation %d", ev.Deme, ev.Event.Generation)
			}
		}
		if ev.Event.Generation <= lastGen[ev.Deme] {
			t.Errorf("deme %d: generation %d after %d", ev.Deme, ev.Event.Generation, lastGen[ev.Deme])
		}
		lastGen[ev.Deme] = ev.Event.Generation
		lastDeme = ev.Deme
	})
	if err := engine.Steps(context.Background(), a, nil, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Demes; i++ {
		if lastGen[i] != 3*p.MigrateEvery {
			t.Fatalf("deme %d observed through generation %d, want %d", i, lastGen[i], 3*p.MigrateEvery)
		}
	}
}

// TestAggregateEvent sanity-checks the epoch telemetry against the
// demes' own counters.
func TestAggregateEvent(t *testing.T) {
	a, err := New(endlessParams(9))
	if err != nil {
		t.Fatal(err)
	}
	var rec engine.Recorder
	if err := engine.Steps(context.Background(), a, &rec, 4); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 4 {
		t.Fatalf("observed %d epochs, want 4", rec.Len())
	}
	last, _ := rec.Last()
	if last.Generation != 4*a.Params().MigrateEvery {
		t.Fatalf("aggregate generation %d, want %d", last.Generation, 4*a.Params().MigrateEvery)
	}
	var draws uint64
	for i := 0; i < a.Demes(); i++ {
		draws += a.Deme(i).Event().Draws
	}
	if last.Draws != draws {
		t.Fatalf("aggregate draws %d, demes sum to %d", last.Draws, draws)
	}
	if last.BestEver <= 0 || last.MeanFitness <= 0 {
		t.Fatalf("degenerate aggregate event %+v", last)
	}
}

// TestSnapshotResumeBitIdentical extends the PR2 resume guarantee to
// the archipelago: snapshot mid-run, restore, run both to the same
// epoch — snapshots, results, and migration cursors must match exactly.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		a, err := New(endlessParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.Steps(context.Background(), a, nil, 5); err != nil {
			t.Fatal(err)
		}
		snap := a.Snapshot()

		r, err := Restore(snap, unreachable{fitness.New()})
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if r.Epochs() != 5 || r.Migrations() != a.Migrations() {
			t.Fatalf("seed %d: cursor restored as (%d, %d), want (5, %d)",
				seed, r.Epochs(), r.Migrations(), a.Migrations())
		}
		if !bytes.Equal(r.Snapshot(), snap) {
			t.Fatalf("seed %d: restore is not snapshot-stable", seed)
		}

		if err := engine.Steps(context.Background(), a, nil, 5); err != nil {
			t.Fatal(err)
		}
		if err := engine.Steps(context.Background(), r, nil, 5); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Snapshot(), r.Snapshot()) {
			t.Fatalf("seed %d: resumed archipelago diverged from uninterrupted run", seed)
		}
		ra, rr := a.Result(), r.Result()
		if ra.BestFitness != rr.BestFitness || ra.Draws != rr.Draws ||
			ra.Migrations != rr.Migrations || !ra.Best.Bits.Equal(rr.Best.Bits) {
			t.Fatalf("seed %d: results diverged: %+v vs %+v", seed, ra, rr)
		}
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	a, err := New(testParams(5))
	if err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	g, err := gap.New(gap.PaperParams(5))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"truncated":  snap[:len(snap)/3],
		"trailing":   append(append([]byte{}, snap...), 0x7F),
		"wrong kind": g.Snapshot(),
	}
	for name, data := range cases {
		if _, err := Restore(data, nil); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
	}
}

// TestCancellationLandsOnEpochBoundary mirrors the gap test: a
// cancelled archipelago stops at the next barrier with a valid partial
// result and can continue afterwards.
func TestCancellationLandsOnEpochBoundary(t *testing.T) {
	a, err := New(endlessParams(11))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var epochs int
	obs := engine.FuncObserver(func(engine.Event) {
		epochs++
		if epochs == 3 {
			cancel()
		}
	})
	if _, err := a.RunCtx(ctx, obs); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a.Epochs() != 3 {
		t.Fatalf("stopped after %d epochs, want exactly 3", a.Epochs())
	}
	if err := engine.Steps(context.Background(), a, nil, 1); err != nil {
		t.Fatal(err)
	}
	if a.Epochs() != 4 {
		t.Fatalf("could not continue after cancellation: at epoch %d", a.Epochs())
	}
}
