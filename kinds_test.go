package leonardo

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"leonardo/internal/engine"
)

// TestRunKindTable walks the run-kind table: every single-node kind
// builds from a spec, snapshots under its own kind tag, resumes through
// ResumeAny, and finishes byte-identical to the run it was resumed
// from; unknown and empty kinds name every registered kind; and the
// cluster kind answers both entry points with its typed error.
func TestRunKindTable(t *testing.T) {
	specs := map[string]RunSpec{
		KindGAP:        {Seed: 5, Population: 8, MaxGenerations: 20},
		KindIsland:     {Seed: 5, Islands: 2, MigrateEvery: 3, Population: 8, MaxGenerations: 12},
		KindCircuit:    {Seed: 5, Seeds: []uint64{3, 9}, Generations: 3, Population: 8},
		KindLanePack:   {Seed: 5, Islands: 3, MigrateEvery: 2, Population: 8, MaxGenerations: 8},
		KindRepertoire: {Seed: 5, Grid: "4x2", Batch: 16, Evaluations: 160},
	}
	if len(specs)+1 != len(runKinds) { // +1: cluster, checked below
		t.Fatalf("table registers %d kinds, test covers %d single-node kinds plus cluster", len(runKinds), len(specs))
	}
	for kind, spec := range specs {
		t.Run(kind, func(t *testing.T) {
			spec.Kind = kind
			r, err := spec.NewRunner()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			snap := r.Snapshot()
			if got, err := SnapshotKind(snap); err != nil || got != kind {
				t.Fatalf("snapshot kind %q (%v), want %q", got, err, kind)
			}
			resumed, err := ResumeAny(snap)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []Runner{r, resumed} {
				if err := engine.Run(context.Background(), run, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(resumed.Snapshot(), r.Snapshot()) {
				t.Fatal("resumed run finished with a different snapshot than the original")
			}
		})
	}

	listsEveryKind := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("accepted")
		}
		for _, k := range runKinds {
			if !strings.Contains(err.Error(), strconv.Quote(k.kind)) {
				t.Errorf("error %q does not list kind %q", err, k.kind)
			}
		}
	}
	t.Run("empty", func(t *testing.T) {
		_, err := RunSpec{Seed: 1}.NewRunner()
		listsEveryKind(t, err)
	})
	t.Run("unknown", func(t *testing.T) {
		_, err := RunSpec{Kind: "mystery", Seed: 1}.NewRunner()
		listsEveryKind(t, err)
		_, err = ResumeAny(engine.NewEnc("mystery", 1).Bytes())
		listsEveryKind(t, err)
	})

	t.Run(KindCluster, func(t *testing.T) {
		if _, err := (RunSpec{Kind: KindCluster, Name: "c", Seed: 1}).NewRunner(); !errors.Is(err, ErrClusterSpec) {
			t.Fatalf("NewRunner: err = %v, want ErrClusterSpec", err)
		}
		cr, err := NewClusterRun(RunSpec{Seed: 1, Islands: 2, Population: 8}.IslandParams(), ClusterShard{Nodes: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeAny(cr.Snapshot()); !errors.Is(err, ErrClusterSnapshot) {
			t.Fatalf("ResumeAny: err = %v, want ErrClusterSnapshot", err)
		}
	})
}
