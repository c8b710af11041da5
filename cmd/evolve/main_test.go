package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"leonardo"
)

// TestMain lets the test binary stand in for the evolve command: when
// re-exec'd with EVOLVE_MAIN=1 it runs main's run() on its own flags.
// That is what makes the interrupt test below a real-signal test — the
// child is this binary, no separate build step needed.
func TestMain(m *testing.M) {
	if os.Getenv("EVOLVE_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// evolveCmd builds a re-exec'd evolve invocation.
func evolveCmd(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EVOLVE_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	return cmd, &stdout, &stderr
}

// TestInterruptWritesCheckpointAndJSON is the graceful-SIGINT contract:
// an interrupted run must not die silently — it writes its final
// checkpoint (when -checkpoint is set), emits the -json summary with
// "cancelled": true, and exits 130. The written checkpoint then resumes
// on the same trajectory.
func TestInterruptWritesCheckpointAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and signals a child process")
	}
	ckpt := filepath.Join(t.TempDir(), "interrupted.snap")
	// Steps = 7 makes perfect fitness unreachable, so the run lasts the
	// full (huge) generation cap unless the signal stops it.
	cmd, stdout, stderr := evolveCmd(t,
		"-seed", "5", "-steps", "7", "-maxgen", "50000000",
		"-json", "-checkpoint", ckpt)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // let the run get under way
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run: err = %v, stderr:\n%s", err, stderr)
	}
	if code := exit.ExitCode(); code != 130 {
		t.Fatalf("interrupted run exited %d, want 130; stderr:\n%s", code, stderr)
	}

	var out struct {
		Cancelled   bool   `json:"cancelled"`
		Converged   bool   `json:"converged"`
		Generations int    `json:"generations"`
		Checkpoint  string `json:"checkpoint"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("interrupted run emitted no JSON summary: %v\nstdout: %s", err, stdout)
	}
	if !out.Cancelled {
		t.Fatalf(`summary lacks "cancelled": true: %+v`, out)
	}
	if out.Converged || out.Generations <= 0 {
		t.Fatalf("summary inconsistent for an interrupted run: %+v", out)
	}
	if out.Checkpoint != ckpt {
		t.Fatalf("summary checkpoint = %q, want %q", out.Checkpoint, ckpt)
	}

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint written on interrupt: %v", err)
	}
	if kind, err := leonardo.SnapshotKind(data); err != nil || kind != "gap" {
		t.Fatalf("checkpoint sniffs as %q, %v", kind, err)
	}

	// The checkpoint resumes: run a few more generations to a pause
	// point and confirm the trajectory continued from where it stopped.
	target := out.Generations + 50
	cmd2, stdout2, stderr2 := evolveCmd(t,
		"-resume", ckpt, "-json",
		"-checkpoint", ckpt, "-checkpoint-at", strconv.Itoa(target))
	if err := cmd2.Run(); err != nil {
		t.Fatalf("resume after interrupt: %v\nstderr:\n%s", err, stderr2)
	}
	var out2 struct {
		Cancelled   bool `json:"cancelled"`
		Generations int  `json:"generations"`
	}
	if err := json.Unmarshal(stdout2.Bytes(), &out2); err != nil {
		t.Fatalf("resume summary: %v\nstdout: %s", err, stdout2)
	}
	if out2.Cancelled {
		t.Fatalf("resumed run reports cancelled: %+v", out2)
	}
	if out2.Generations != target {
		t.Fatalf("resumed run paused at generation %d, want %d", out2.Generations, target)
	}
}

// TestInterruptIslandRun: the same contract holds on the archipelago
// branch, whose checkpoints are epoch-granular island snapshots.
func TestInterruptIslandRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and signals a child process")
	}
	ckpt := filepath.Join(t.TempDir(), "island.snap")
	cmd, stdout, stderr := evolveCmd(t,
		"-seed", "5", "-steps", "7", "-maxgen", "50000000",
		"-islands", "3", "-migrate-every", "5",
		"-json", "-checkpoint", ckpt)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 130 {
		t.Fatalf("interrupted island run: err = %v, stderr:\n%s", err, stderr)
	}
	var out struct {
		Cancelled bool `json:"cancelled"`
		Islands   int  `json:"islands"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("no JSON summary: %v\nstdout: %s", err, stdout)
	}
	if !out.Cancelled || out.Islands != 3 {
		t.Fatalf("summary = %+v, want cancelled on 3 islands", out)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint written on interrupt: %v", err)
	}
	if kind, err := leonardo.SnapshotKind(data); err != nil || kind != "island" {
		t.Fatalf("checkpoint sniffs as %q, %v", kind, err)
	}
}

// TestRepertoirePauseAndResume drives the MAP-Elites branch through the
// checkpoint lifecycle: pause at a batch, confirm the snapshot sniffs
// as "repertoire", resume it (kind-sniffed, no -repertoire flag), and
// check the finished archive matches an uninterrupted run of the same
// parameters — the CLI-level version of the differential wall.
func TestRepertoirePauseAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "repertoire.snap")
	args := []string{"-seed", "3", "-grid", "8x4", "-batch", "32", "-evals", "2000"}

	// Paused first half.
	cmd, _, stderr := evolveCmd(t, append([]string{"-repertoire",
		"-json", "-checkpoint", ckpt, "-checkpoint-at", "10"}, args...)...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("paused run: %v\nstderr:\n%s", err, stderr)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint written at pause: %v", err)
	}
	if kind, err := leonardo.SnapshotKind(data); err != nil || kind != "repertoire" {
		t.Fatalf("checkpoint sniffs as %q, %v", kind, err)
	}

	// Resume to completion — the snapshot kind selects the branch, the
	// -repertoire flag stays off. -workers differs on purpose: it must
	// not change the archive.
	final := filepath.Join(dir, "final.snap")
	cmd2, stdout2, stderr2 := evolveCmd(t,
		"-resume", ckpt, "-workers", "8", "-json", "-checkpoint", final)
	if err := cmd2.Run(); err != nil {
		t.Fatalf("resumed run: %v\nstderr:\n%s", err, stderr2)
	}
	var out struct {
		Filled      int `json:"filled"`
		Cells       int `json:"cells"`
		BestFitness int `json:"best_fitness"`
		Evaluations int `json:"evaluations"`
	}
	if err := json.Unmarshal(stdout2.Bytes(), &out); err != nil {
		t.Fatalf("resume summary: %v\nstdout: %s", err, stdout2)
	}
	if out.Cells != 32 || out.Filled < 1 || out.Evaluations < 2000 {
		t.Fatalf("resumed archive summary inconsistent: %+v", out)
	}

	// Uninterrupted reference run with the same parameters.
	ref := filepath.Join(dir, "reference.snap")
	cmd3, _, stderr3 := evolveCmd(t, append([]string{"-repertoire",
		"-json", "-checkpoint", ref}, args...)...)
	if err := cmd3.Run(); err != nil {
		t.Fatalf("reference run: %v\nstderr:\n%s", err, stderr3)
	}
	finalData, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	refData, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalData, refData) {
		t.Fatal("resumed archive differs from uninterrupted run")
	}
}
