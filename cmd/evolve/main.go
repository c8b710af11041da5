// Command evolve runs the Discipulus Simplex genetic algorithm
// processor (behavioural model) and reports the evolved gait.
//
// Usage:
//
//	evolve [-seed N] [-pop N] [-sel P] [-xov P] [-mut N] [-maxgen N]
//	       [-islands N] [-migrate-every N] [-topology ring|none] [-workers N]
//	       [-lanepack]
//	       [-repertoire] [-grid HxS] [-batch N] [-evals N]
//	       [-progress N] [-json] [-curve]
//	       [-checkpoint F] [-checkpoint-at N] [-resume F]
//	       [-cpuprofile F] [-memprofile F]
//
// The run is resumable: -checkpoint writes a versioned binary snapshot
// of the complete run state (population, RNG, counters, history) when
// the command exits — including on SIGINT/SIGTERM, which cancel the run
// cleanly at the next generation boundary — and -resume continues the
// exact random trajectory from such a file, finishing with results
// bit-identical to an uninterrupted run. -checkpoint-at N stops after
// generation N (pause); a later -resume invocation completes the run.
//
// -islands N (N > 1) runs an archipelago: N demes evolve concurrently
// and exchange champions over the -topology every -migrate-every
// generations. Island runs checkpoint and resume like single runs —
// -resume sniffs the snapshot kind, so a file written in island mode
// resumes in island mode regardless of flags. In island mode -progress
// and -checkpoint-at count epochs (migration intervals), and the replay
// is bit-identical for any -workers value.
//
// -lanepack runs the archipelago on the lane-packed gate-level backend:
// every deme is one SWAR lane of a single simulated GAP circuit, so an
// epoch costs one circuit pass per clock cycle for all demes together.
// -islands chooses the deme count (1 or unset means all 64 lanes); the
// island-mode flags, checkpointing, and resume semantics are otherwise
// identical. The population evolves in circuit RAM, so -lanepack implies
// the paper's three-rule fitness and epoch-granular telemetry.
//
// -repertoire grows a MAP-Elites quality-diversity archive instead of a
// single champion: a -grid HxS lattice over (final heading, per-cycle
// stride displacement), each cell keeping the fittest gait with that
// behaviour, -batch candidates per step up to an -evals budget. The
// archive checkpoints and resumes like the other kinds — a snapshot
// file written in repertoire mode resumes in repertoire mode — and
// replays bit-identically for any -workers value. -progress and
// -checkpoint-at count batches.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"leonardo"
	"leonardo/internal/engine"
	"leonardo/internal/gait"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/island"
	"leonardo/internal/prof"
	"leonardo/internal/repertoire"
	"leonardo/internal/robot"
	"leonardo/internal/stats"
)

// main delegates to run so deferred cleanup (profile writers) executes
// before os.Exit.
func main() { os.Exit(run()) }

// output is the -json document: the run result plus, with -progress,
// the per-generation trace.
type output struct {
	Converged   bool           `json:"converged"`
	Cancelled   bool           `json:"cancelled,omitempty"`
	Generations int            `json:"generations"`
	BestFitness int            `json:"best_fitness"`
	MaxFitness  int            `json:"max_fitness"`
	Draws       uint64         `json:"draws"`
	Islands     int            `json:"islands,omitempty"`
	Migrations  int            `json:"migrations,omitempty"`
	BestDeme    int            `json:"best_deme,omitempty"`
	Genome      string         `json:"genome,omitempty"`
	OnChipNs    int64          `json:"on_chip_ns"`
	Checkpoint  string         `json:"checkpoint,omitempty"`
	Trace       []engine.Event `json:"trace,omitempty"`
}

// repertoireOutput is the -json document of a -repertoire run: archive
// coverage and work counters plus every elite.
type repertoireOutput struct {
	Cancelled   bool               `json:"cancelled,omitempty"`
	Filled      int                `json:"filled"`
	Cells       int                `json:"cells"`
	BestFitness int                `json:"best_fitness"`
	MaxFitness  int                `json:"max_fitness"`
	Batches     int                `json:"batches"`
	Evaluations int                `json:"evaluations"`
	Draws       uint64             `json:"draws"`
	Checkpoint  string             `json:"checkpoint,omitempty"`
	Elites      []repertoire.Elite `json:"elites,omitempty"`
	Trace       []engine.Event     `json:"trace,omitempty"`
}

func run() int {
	seed := flag.Uint64("seed", 1, "random seed for the cellular-automaton generator")
	pop := flag.Int("pop", 32, "population size (even)")
	sel := flag.Float64("sel", 0.8, "tournament selection threshold")
	xov := flag.Float64("xov", 0.7, "crossover threshold")
	mut := flag.Int("mut", 15, "single-bit mutations per generation")
	maxGen := flag.Int("maxgen", gap.DefaultMaxGenerations, "generation cap")
	steps := flag.Int("steps", 2, "walk steps per genome (2 = paper; more = future-work layout)")
	islands := flag.Int("islands", 1, "number of concurrent demes (>1 enables island mode)")
	migrateEvery := flag.Int("migrate-every", island.DefaultMigrateEvery, "generations between migration barriers (island mode)")
	topology := flag.String("topology", string(island.Ring), `island migration topology: "ring" or "none"`)
	workers := flag.Int("workers", 0, "worker goroutines for island mode (0 = GOMAXPROCS; never affects results)")
	lanepack := flag.Bool("lanepack", false, "run the archipelago lane-packed: one gate-level deme per SWAR lane of a shared simulator (-islands <= 1 means all 64 lanes)")
	repertoireMode := flag.Bool("repertoire", false, "grow a MAP-Elites gait repertoire over (heading, stride) cells instead of a single champion")
	grid := flag.String("grid", "", `repertoire grid as "HxS" heading sectors x stride bands (empty = 16x8)`)
	batch := flag.Int("batch", 0, "repertoire candidates evaluated per batch (0 = default)")
	evals := flag.Int("evals", 0, "repertoire evaluation budget (0 = default)")
	curve := flag.Bool("curve", false, "plot the fitness-vs-generation curve")
	progress := flag.Int("progress", 0, "report telemetry every N generations")
	jsonOut := flag.Bool("json", false, "emit the result (and -progress trace) as JSON")
	checkpoint := flag.String("checkpoint", "", "write a resumable snapshot to this file on exit")
	checkpointAt := flag.Int("checkpoint-at", 0, "pause after generation N (with -checkpoint: write the snapshot there)")
	resume := flag.String("resume", "", "resume from a snapshot file (parameter flags are ignored)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evolve:", err)
		return 1
	}
	defer stop()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// The first signal cancels the run at the next generation boundary so
	// the final checkpoint and -json summary still happen; releasing the
	// handler here restores default delivery, so a second signal kills
	// the process instead of being swallowed during that wind-down.
	context.AfterFunc(ctx, cancel)

	var r leonardo.Runner
	if *resume != "" {
		// The snapshot header, not the flags, decides how a file resumes.
		data, err := os.ReadFile(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
		if r, err = leonardo.ResumeAny(data); err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
	} else {
		base := gap.PaperParams(*seed)
		base.PopulationSize = *pop
		base.SelectionThreshold = *sel
		base.CrossoverThreshold = *xov
		base.MutationsPerGeneration = *mut
		base.MaxGenerations = *maxGen
		base.Layout = genome.Layout{Steps: *steps, Legs: genome.Legs}
		base.RecordHistory = *curve
		ip := island.Params{
			Demes:        *islands,
			MigrateEvery: *migrateEvery,
			Topology:     island.Topology(*topology),
			Workers:      *workers,
			Base:         base,
		}
		switch {
		case *repertoireMode:
			rp := repertoire.Params{
				Batch:          *batch,
				MaxEvaluations: *evals,
				Seed:           *seed,
				Workers:        *workers,
			}
			if *grid != "" {
				if rp.Headings, rp.Strides, err = leonardo.ParseGrid(*grid); err != nil {
					fmt.Fprintf(os.Stderr, "evolve: -grid %q is not of the form HxS (e.g. 16x8)\n", *grid)
					return 1
				}
			}
			r, err = leonardo.NewRepertoireRun(rp)
		case *lanepack:
			if ip.Demes <= 1 {
				ip.Demes = island.MaxLaneDemes
			}
			r, err = leonardo.NewLanePackRun(ip)
		case *islands > 1:
			r, err = leonardo.NewIslandRun(ip)
		default:
			r, err = leonardo.NewRun(base)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
	}

	k, err := adapt(r, *curve)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evolve:", err)
		return 1
	}
	if *resume != "" {
		// Workers is pure scheduling, so it is the one flag a resume
		// honours; everything else comes from the snapshot.
		if w, ok := r.(interface{ SetWorkers(int) }); ok {
			w.SetWorkers(*workers)
		}
		fmt.Fprintf(os.Stderr, "evolve: resumed %q at %s %d%s\n", *resume, k.unit, k.steps(), k.note())
	}
	return drive(ctx, k, *jsonOut, *progress, *checkpoint, *checkpointAt)
}

// kind adapts one run kind to the shared drive loop: what a Step
// advances, how progress and the final result print.
type kind struct {
	r leonardo.Runner
	// unit names what one Step advances: generation, epoch, or batch.
	unit string
	// steps returns the number of completed units.
	steps func() int
	// note returns the resume message's detail (" (8 demes)"), if any.
	note func() string
	// progress prints one -progress line to stderr.
	progress func(ev engine.Event)
	// report prints the result: the -json document, or the terminal
	// summary.
	report func(jsonOut, cancelled bool, checkpoint string, trace []engine.Event) error
}

// adapt wraps r in its kind's adapter. cmd/evolve drives behavioural,
// archipelago, lane-packed, and repertoire runs.
func adapt(r leonardo.Runner, curve bool) (*kind, error) {
	switch r := r.(type) {
	case *leonardo.Run:
		return gapKind(r, curve), nil
	case *leonardo.IslandRun:
		return archipelagoKind(r, r), nil
	case *leonardo.LanePackRun:
		return archipelagoKind(r, r.Archipelago), nil
	case *leonardo.RepertoireRun:
		return repertoireKind(r), nil
	default:
		return nil, fmt.Errorf("cannot drive a %T run", r)
	}
}

// drive steps the run to completion (or to the -checkpoint-at step),
// writes the -checkpoint snapshot, and reports. The first signal
// cancels at the next step boundary, so the checkpoint and the report
// still happen, and the exit code is then 130.
func drive(ctx context.Context, k *kind, jsonOut bool, progress int, checkpoint string, checkpointAt int) int {
	// Observation: a stride-sampled recorder feeds the JSON trace, a
	// printing observer feeds the terminal; both only exist when asked
	// for, so the default run keeps the engine's nil-observer fast path.
	var observers []engine.Observer
	var rec *engine.Recorder
	if progress > 0 {
		rec = &engine.Recorder{Every: progress}
		observers = append(observers, rec)
		if !jsonOut {
			observers = append(observers, engine.FuncObserver(func(ev engine.Event) {
				if k.steps()%progress == 0 {
					k.progress(ev)
				}
			}))
		}
	}
	var obs engine.Observer
	if len(observers) > 0 {
		obs = engine.MultiObserver(observers)
	}

	limit := -1
	if checkpointAt > 0 {
		limit = max(checkpointAt-k.steps(), 0)
	}
	runErr := engine.Steps(ctx, k.r, obs, limit)
	cancelled := errors.Is(runErr, context.Canceled)
	if runErr != nil && !cancelled {
		fmt.Fprintln(os.Stderr, "evolve:", runErr)
		return 1
	}

	if checkpoint != "" {
		if err := os.WriteFile(checkpoint, k.r.Snapshot(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "evolve: snapshot at %s %d written to %q\n", k.unit, k.steps(), checkpoint)
	}

	var trace []engine.Event
	if rec != nil {
		trace = rec.Events()
	}
	if err := k.report(jsonOut, cancelled, checkpoint, trace); err != nil {
		fmt.Fprintln(os.Stderr, "evolve:", err)
		return 1
	}
	if cancelled {
		return 130
	}
	return 0
}

// encodeJSON writes the -json document to stdout.
func encodeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// paperTiming is the on-chip clock model at the run's parameters.
func paperTiming(p gap.Params) gap.Timing {
	timing := gap.PaperTiming()
	timing.Bits = p.Layout.Bits()
	timing.Population = p.PopulationSize
	timing.Mutations = p.MutationsPerGeneration
	timing.CrossoverRate = p.CrossoverThreshold
	return timing
}

// gapKind adapts a single behavioural GAP run; a step is a generation.
func gapKind(g *leonardo.Run, curve bool) *kind {
	return &kind{
		r:     g,
		unit:  "generation",
		steps: g.GenerationNumber,
		note:  func() string { return "" },
		progress: func(ev engine.Event) {
			fmt.Fprintf(os.Stderr, "gen %6d  best %2d/%2d  mean %5.1f  draws %d\n",
				ev.Generation, ev.BestEver, g.Result().MaxFitness, ev.MeanFitness, ev.Draws)
		},
		report: func(jsonOut, cancelled bool, checkpoint string, trace []engine.Event) error {
			res := g.Result()
			p := g.Params()
			timing := paperTiming(p)
			if jsonOut {
				out := output{
					Converged:   res.Converged,
					Cancelled:   cancelled,
					Generations: res.Generations,
					BestFitness: res.BestFitness,
					MaxFitness:  res.MaxFitness,
					Draws:       res.Draws,
					OnChipNs:    timing.RunDuration(res.Generations).Nanoseconds(),
					Checkpoint:  checkpoint,
					Trace:       trace,
				}
				if p.Layout == genome.PaperLayout {
					out.Genome = res.Best.Packed().String()
				}
				return encodeJSON(out)
			}

			fmt.Printf("converged: %v after %d generations (best fitness %d/%d)\n",
				res.Converged, res.Generations, res.BestFitness, res.MaxFitness)
			fmt.Printf("on-chip time at 1 MHz: %v (%s)\n", timing.RunDuration(res.Generations), timing)
			fmt.Printf("random draws consumed: %d\n\n", res.Draws)

			if p.Layout == genome.PaperLayout {
				champ := res.Best.Packed()
				fmt.Println("champion genome:")
				fmt.Println(" ", champ)
				fmt.Println(champ.Describe())
				fmt.Println()
				fmt.Println("gait diagram (2 cycles):")
				fmt.Print(gait.Diagram(res.Best, 2))
			} else {
				fmt.Println("gait diagram (1 cycle):")
				fmt.Print(gait.Diagram(res.Best, 1))
			}
			m := robot.Walk(res.Best, robot.Trial{Cycles: 5})
			fmt.Println("\nsimulated walk (5 cycles):", m)

			if curve && len(res.History) > 0 {
				var s stats.Series
				s.Name = "best fitness"
				for _, h := range res.History {
					s.Add(float64(h.Generation), float64(h.BestFitness))
				}
				fmt.Println()
				fmt.Print(s.Render(12, 72))
			}
			return nil
		},
	}
}

// archipelagoKind adapts an island or lane-packed run r whose demes a
// holds; a step is an epoch (-migrate-every generations per deme).
func archipelagoKind(r leonardo.Runner, a *island.Archipelago) *kind {
	return &kind{
		r:     r,
		unit:  "epoch",
		steps: a.Epochs,
		note:  func() string { return fmt.Sprintf(" (%d demes)", a.Demes()) },
		progress: func(ev engine.Event) {
			fmt.Fprintf(os.Stderr, "epoch %5d  gen %6d  best %2d/%2d  mean %5.1f  migrants %d\n",
				a.Epochs(), ev.Generation, ev.BestEver, a.Result().MaxFitness, ev.MeanFitness, a.Migrations())
		},
		report: func(jsonOut, cancelled bool, checkpoint string, trace []engine.Event) error {
			res := a.Result()
			base := a.Params().Base
			timing := paperTiming(base)
			if jsonOut {
				out := output{
					Converged:   res.Converged,
					Cancelled:   cancelled,
					Generations: res.Generations,
					BestFitness: res.BestFitness,
					MaxFitness:  res.MaxFitness,
					Draws:       res.Draws,
					Islands:     a.Demes(),
					Migrations:  res.Migrations,
					BestDeme:    res.BestDeme,
					OnChipNs:    timing.RunDuration(res.Generations).Nanoseconds(),
					Checkpoint:  checkpoint,
					Trace:       trace,
				}
				if base.Layout == genome.PaperLayout {
					out.Genome = res.Best.Packed().String()
				}
				return encodeJSON(out)
			}

			fmt.Printf("converged: %v after %d generations on %d islands (best fitness %d/%d, deme %d, %d migrants)\n",
				res.Converged, res.Generations, a.Demes(), res.BestFitness, res.MaxFitness, res.BestDeme, res.Migrations)
			fmt.Printf("on-chip time per island at 1 MHz: %v (%s)\n", timing.RunDuration(res.Generations), timing)
			fmt.Printf("random draws consumed: %d\n\n", res.Draws)

			if base.Layout == genome.PaperLayout {
				champ := res.Best.Packed()
				fmt.Println("champion genome:")
				fmt.Println(" ", champ)
				fmt.Println(champ.Describe())
				fmt.Println()
			}
			fmt.Println("gait diagram (2 cycles):")
			fmt.Print(gait.Diagram(res.Best, 2))
			m := robot.Walk(res.Best, robot.Trial{Cycles: 5})
			fmt.Println("\nsimulated walk (5 cycles):", m)
			return nil
		},
	}
}

// repertoireKind adapts a MAP-Elites repertoire run; a step is a
// candidate batch.
func repertoireKind(rep *leonardo.RepertoireRun) *kind {
	return &kind{
		r:     rep,
		unit:  "batch",
		steps: rep.Batches,
		note: func() string {
			filled, total := rep.Coverage()
			return fmt.Sprintf(" (%d/%d cells)", filled, total)
		},
		progress: func(ev engine.Event) {
			filled, total := rep.Coverage()
			fmt.Fprintf(os.Stderr, "batch %5d  evals %7d  cells %4d/%4d  best %2d  mean %5.1f\n",
				ev.Generation, ev.Evaluations, filled, total, ev.BestEver, ev.MeanFitness)
		},
		report: func(jsonOut, cancelled bool, checkpoint string, trace []engine.Event) error {
			res := rep.Result()
			if jsonOut {
				return encodeJSON(repertoireOutput{
					Cancelled:   cancelled,
					Filled:      res.Filled,
					Cells:       res.Cells,
					BestFitness: res.BestFitness,
					MaxFitness:  res.MaxFitness,
					Batches:     res.Batches,
					Evaluations: res.Evaluations,
					Draws:       res.Draws,
					Checkpoint:  checkpoint,
					Elites:      rep.Elites(),
					Trace:       trace,
				})
			}

			fmt.Printf("repertoire: %d/%d cells after %d evaluations in %d batches (best fitness %d/%d)\n",
				res.Filled, res.Cells, res.Evaluations, res.Batches, res.BestFitness, res.MaxFitness)
			fmt.Printf("random draws consumed: %d\n\n", res.Draws)

			fmt.Println("elites (heading rad, stride mm/cycle, fitness):")
			for _, el := range rep.Elites() {
				fmt.Printf("  %+6.3f  %7.2f  %2d  %s\n", el.HeadingRad, el.StrideMM, el.Fitness, el.Genome)
			}
			if res.Filled > 0 {
				fmt.Println("\nbest elite gait diagram (2 cycles):")
				fmt.Print(gait.Diagram(genome.FromGenome(res.Best.Genome), 2))
				m := robot.WalkGenome(res.Best.Genome, robot.Trial{Cycles: 5})
				fmt.Println("\nsimulated walk (5 cycles):", m)
			}
			return nil
		},
	}
}
