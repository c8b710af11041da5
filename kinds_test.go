package leonardo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
	"strings"
	"testing"

	"leonardo/internal/engine"
)

// kindSpecs holds one small fixed spec per single-node run kind. The
// circuit spec runs 20 generations so that its first step (one
// 1024-cycle stride) leaves it mid-run.
var kindSpecs = map[string]RunSpec{
	KindGAP:        {Seed: 5, Population: 8, MaxGenerations: 20},
	KindIsland:     {Seed: 5, Islands: 2, MigrateEvery: 3, Population: 8, MaxGenerations: 12},
	KindCircuit:    {Seed: 5, Seeds: []uint64{3, 9}, Generations: 20, Population: 8},
	KindLanePack:   {Seed: 5, Islands: 3, MigrateEvery: 2, Population: 8, MaxGenerations: 8},
	KindRepertoire: {Seed: 5, Grid: "4x2", Batch: 16, Evaluations: 160},
}

// TestRunKindTable walks the run-kind table: every single-node kind
// builds from a spec, snapshots under its own kind tag, resumes through
// ResumeAny, and finishes byte-identical to the run it was resumed
// from; unknown and empty kinds name every registered kind; and the
// cluster kind answers both entry points with its typed error.
func TestRunKindTable(t *testing.T) {
	if len(kindSpecs)+1 != len(runKinds) { // +1: cluster, checked below
		t.Fatalf("table registers %d kinds, test covers %d single-node kinds plus cluster", len(runKinds), len(kindSpecs))
	}
	for kind, spec := range kindSpecs {
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

// TestGoldenSnapshotDigests pins the absolute trajectory of every run
// kind: the SHA-256 of its snapshot after two steps and at completion,
// for the kindSpecs above and a one-node cluster shard of the island
// spec. The differential tests only prove replay relative to another
// run of the same binary; these digests fail when a refactor, a
// toolchain or a CPU architecture moves a single snapshot byte.
// Recorded with go1.24.0 on linux/amd64, from the code as it stood
// before the snapshot codecs shared gap.EncodeParams, so they also pin
// that consolidation as byte-neutral.
func TestGoldenSnapshotDigests(t *testing.T) {
	golden := map[string][2]string{ // kind → {after 1 step, final}
		KindGAP: {
			"f49ac34fb40d37173a4037b38eb472d9c09b363999442f5f684be567ebc9426a",
			"8c78aea107f82c4f575119ed63aa438cce8200e8adc06bc6350cddffbfb0bdc8",
		},
		KindIsland: {
			"f52388a48d0d38aed22c997d506482b4a9f62f0e37cea37a727f12ee58f515c8",
			"0c2f1b990f931d6fb2746b24a2039e8a05e300b5be4972852033ff9f60f88fef",
		},
		KindCircuit: {
			"11acef7cbab57239ab89d45e68a31159ca18fac401897851631a2eeb023a4ef9",
			"a0d7d6a68e56128f0219dcf50b6b95422bac8fbf80c82d8286f2bc18d28cbc1a",
		},
		KindLanePack: {
			"c075253ac24d5bb261426c70ac1e996f27c1b08ae24f73919b1f3ab9be6579f6",
			"bb65c67d3cb692fe04bc1d2885902c99b188e972870c37390a4ed69e5c1f5845",
		},
		KindRepertoire: {
			"4a440b8d3a0b1b1366508b0e29e85d438a35bdea46730c28dc1698be2ad4c2e7",
			"fbba98047b2a5ae20573779d67f3657b94192c9afe9d6eeb41d52455778b1455",
		},
		KindCluster: {
			"04dc6e54563bbaedf3376720a02e8dc627f6798ebbcf90cd3d7b617330586314",
			"c266531ed54ad3f71eb708f59f8930e75fb74061468b3208ff6a6f2e85fc9996",
		},
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for kind, want := range golden {
		t.Run(kind, func(t *testing.T) {
			var r Runner
			var err error
			if kind == KindCluster {
				r, err = NewClusterRun(kindSpecs[KindIsland].IslandParams(), ClusterShard{Nodes: 1}, nil)
			} else {
				spec := kindSpecs[kind]
				spec.Kind = kind
				r, err = spec.NewRunner()
			}
			if err != nil {
				t.Fatal(err)
			}
			var got [2]string
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
			got[0] = digest(r.Snapshot())
			if err := engine.Run(context.Background(), r, nil); err != nil {
				t.Fatal(err)
			}
			got[1] = digest(r.Snapshot())
			if got != want {
				t.Errorf("snapshot digests {after 1 step, final}\n got %q\nwant %q", got, want)
			}
		})
	}
}
