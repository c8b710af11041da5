package main

import (
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"leonardo"
	"leonardo/internal/repertoire"
)

// refQuantile is the definition nearest-rank quantile implements,
// computed by brute force: the smallest sample x such that at least
// ceil(q*n) samples are <= x.
func refQuantile(xs []float64, q float64) float64 {
	need := int(math.Ceil(q*float64(len(xs)) - 1e-9))
	if need < 1 {
		need = 1
	}
	best := math.Inf(1)
	for _, x := range xs {
		le := 0
		for _, y := range xs {
			if y <= x {
				le++
			}
		}
		if le >= need && x < best {
			best = x
		}
	}
	return best
}

func TestQuantileMatchesReference(t *testing.T) {
	r := newRNG(42, 0)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.below(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.below(50)) + r.float() // ties and spread
		}
		d := summarize(xs)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got := quantile(sortedCopy(xs), q)
			if want := refQuantile(xs, q); got != want {
				t.Fatalf("n=%d q=%g: quantile %g, reference %g", n, q, got, want)
			}
		}
		if d.P50 != refQuantile(xs, 0.5) || d.P99 != refQuantile(xs, 0.99) || d.N != n {
			t.Fatalf("n=%d: summary %+v disagrees with the reference", n, d)
		}
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail string
	}{
		{5, "max"}, {19, "max"}, {20, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"}, {100000, "p99.99"},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		d := summarize(xs)
		if d.Tail != c.tail {
			t.Errorf("n=%d: tail %s, want %s", c.n, d.Tail, c.tail)
		}
		if d.Tail != "max" {
			above := 0
			for _, x := range xs {
				if x > d.TailV {
					above++
				}
			}
			if above < 10 {
				t.Errorf("n=%d: only %d samples beyond %s", c.n, above, d.Tail)
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a := schedule(7, streamSchedule, 2000, time.Second)
	b := schedule(7, streamSchedule, 2000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("2000/s for 1s scheduled %d requests", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule is not in due order")
		}
	}
	if reflect.DeepEqual(a, schedule(8, streamSchedule, 2000, time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}

	g := repGridOf()
	pa := cellPoints(g, allCells(g), 500, newRNG(7, streamPoints))
	pb := cellPoints(g, allCells(g), 500, newRNG(7, streamPoints))
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("same seed gave different query points")
	}
	if !reflect.DeepEqual(specMix(7, 12), specMix(7, 12)) || reflect.DeepEqual(specMix(7, 12), specMix(8, 12)) {
		t.Fatal("spec mix is not a function of the seed")
	}
}

func TestPointsFallInsideCells(t *testing.T) {
	g := repGridOf()
	r := newRNG(3, streamPoints)
	for c := 0; c < g.Cells(); c++ {
		h, s := c/g.Strides, c%g.Strides
		for k := 0; k < 20; k++ {
			p := pointIn(g, h, s, r)
			bh, bs, ok := g.Bin(p.Heading, p.Stride)
			if !ok || bh != h || bs != s {
				t.Fatalf("point %+v for cell (%d,%d) bins to (%d,%d,%v)", p, h, s, bh, bs, ok)
			}
			ch, cs := g.CellCenter(h, s)
			if p.Heading == ch || p.Stride == cs {
				t.Fatalf("point %+v sits on the centre of cell (%d,%d)", p, h, s)
			}
		}
	}
}

func TestSpecMixHasEveryKind(t *testing.T) {
	seen := map[string]int{}
	for _, s := range specMix(11, 8) {
		seen[kindOf(s)]++
		if _, err := s.NewRunner(); err != nil {
			t.Fatalf("%s spec does not build: %v", s.Kind, err)
		}
	}
	for _, k := range kinds {
		if seen[k] != 2 {
			t.Fatalf("8 specs hold %d %s specs, want 2", seen[k], k)
		}
	}
}

// The oracle must count a tampered answer as a failure, and accept the
// genuine one.
func TestOracleRejectsTamperedAnswers(t *testing.T) {
	spec := leonardo.RunSpec{Kind: leonardo.KindRepertoire, Seed: 5, Grid: "8x4", Batch: 32, Evaluations: 640}
	snaps, err := replay(spec)
	if err != nil {
		t.Fatal(err)
	}
	archives, err := decodeAll(snaps)
	if err != nil {
		t.Fatal(err)
	}
	final := archives[len(archives)-1]
	g := final.Grid()
	var filled, empty *point
	r := newRNG(9, streamPoints)
	for c := 0; c < g.Cells() && (filled == nil || empty == nil); c++ {
		p := pointIn(g, c/g.Strides, c%g.Strides, r)
		if final.Filled(c) && filled == nil {
			filled = &p
		} else if !final.Filled(c) && empty == nil {
			empty = &p
		}
	}
	if filled == nil || empty == nil {
		t.Fatal("test archive needs a filled and an empty cell")
	}
	good, ok := expectLookup("r000001", *filled, final)
	if !ok {
		t.Fatal("no expected answer for a filled cell")
	}
	if !answerMatches("r000001", *filled, final, http.StatusOK, good) {
		t.Fatal("oracle rejected the genuine answer")
	}

	res := &e2eResult{}
	tampered := append([]byte(nil), good...)
	tampered[len(tampered)-2] ^= 1 // one flipped bit in the curiosity count
	for _, c := range []struct {
		name   string
		status int
		body   []byte
	}{
		{"flipped byte", http.StatusOK, tampered},
		{"other run", http.StatusOK, mustLookup(t, "r000002", *filled, final)},
		{"404 for a filled cell", http.StatusNotFound, []byte(`{"error": "no gait evolved for cell (0,0) yet"}`)},
		{"500", http.StatusInternalServerError, good},
	} {
		res.Attempted++
		if answerMatchesAny("r000001", *filled, archives, c.status, c.body) {
			t.Errorf("%s: oracle accepted a wrong answer", c.name)
			continue
		}
		res.fail("%s", c.name)
	}
	if res.Failed != 4 || res.Attempted != 4 {
		t.Fatalf("counted %d failures of %d, want 4 of 4", res.Failed, res.Attempted)
	}

	// An empty cell's 404 is right; a 200 there is not.
	msg := emptyCellMessage(final, *empty)
	if !answerMatches("r000001", *empty, final, http.StatusNotFound, append([]byte(`{"error": "`), msg...)) {
		t.Fatal("oracle rejected the genuine 404")
	}
	if answerMatches("r000001", *empty, final, http.StatusOK, good) {
		t.Fatal("oracle accepted a gait for an empty cell")
	}
}

func mustLookup(t *testing.T, id string, p point, a *repertoire.Archive) []byte {
	t.Helper()
	b, ok := expectLookup(id, p, a)
	if !ok {
		t.Fatal("no lookup")
	}
	return b
}

// The daemon's final snapshot is compared against an in-process
// replay; the replay's bytes do not depend on the checkpoint stride.
func TestReplayFinalSnapshotIsStrideFree(t *testing.T) {
	spec := specFor("gap", 3)
	spec.MaxGenerations = 120
	snaps, err := replay(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if etagOf(snaps[len(snaps)-1]) != etagOf(r.Snapshot()) {
		t.Fatal("final snapshot depends on the checkpoint stride")
	}
	if len(snaps) != (120+checkpointStride-1)/checkpointStride {
		t.Fatalf("%d checkpoints for 120 generations at stride %d", len(snaps), checkpointStride)
	}
}
