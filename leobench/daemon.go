package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one leonardod child process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:PORT
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited closes
	lines  chan string   // the last stderr lines, for failure reports
}

// daemonProcs is the GOMAXPROCS every daemon is started with.
var daemonProcs = nproc()

// startDaemon launches bin on a free loopback port with the given
// spool and worker count, and returns once /healthz answers.
func startDaemon(bin, spool string, workers int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-spool", spool, "-workers", strconv.Itoa(workers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start leonardod: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), lines: make(chan string, 32)}
	live.Store(d, true)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on http://"); ok {
				a, _, _ = strings.Cut(a, " ")
				addr <- a
			}
			select { // keep only the newest lines
			case d.lines <- line:
			default:
				<-d.lines
				d.lines <- line
			}
		}
		d.err = cmd.Wait()
		live.Delete(d)
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("leonardod exited before listening: %v; %s", d.err, d.tail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("leonardod did not report its address within 30s")
	}
	if err := d.awaitHealthy(); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitHealthy() error {
	c, err := newClient(d.base)
	if err != nil {
		return err
	}
	defer c.close()
	status, _, err := c.get("/healthz")
	if err != nil {
		return fmt.Errorf("leonardod /healthz: %w", err)
	}
	if status != 200 {
		return fmt.Errorf("leonardod /healthz: status %d", status)
	}
	return nil
}

// tail returns the buffered last stderr lines.
func (d *daemon) tail() string {
	var b strings.Builder
	for {
		select {
		case l := <-d.lines:
			b.WriteString(l)
			b.WriteByte('\n')
		default:
			return b.String()
		}
	}
}

// stop sends SIGTERM (the daemon checkpoints and exits) and waits; a
// daemon still alive after 20s is killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reported by Wait
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("leonardod exit: %v; %s", d.err, d.tail())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("leonardod ignored SIGTERM for 20s")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // best effort; Wait below reaps it either way
	<-d.exited
}

// cpu returns the user+system CPU time the daemon has used so far,
// from /proc/<pid>/stat (clock-tick resolution).
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// live holds every daemon started and not yet reaped.
var live sync.Map

// stopDaemonsOnSignal makes SIGINT or SIGTERM to the benchmark kill
// every daemon it started, wait for them, and exit.
func stopDaemonsOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		live.Range(func(k, _ any) bool {
			k.(*daemon).kill()
			return true
		})
		fmt.Fprintf(os.Stderr, "leobench: %v: stopped every daemon\n", sig)
		os.Exit(1)
	}()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux the Go toolchain supports.
const clockTick = 10 * time.Millisecond

func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// cpuStat reads the VM-wide CPU time counters (the "cpu" line of
// /proc/stat); nil when unavailable.
func cpuStat() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealPct is the share of CPU time between two cpuStat readings that
// the hypervisor gave to other guests (the 8th counter, "steal"). It
// tells a run slowed by its host from one slowed by the program.
func stealPct(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return 100 * (b[7] - a[7]) / total
}

// stealSampler samples the VM-wide CPU counters every 20 ms, so a
// window of queries can be checked for time the hypervisor took away.
type stealSampler struct {
	at    []time.Time
	stat  [][]float64
	stopc chan struct{}
	done  chan struct{}
}

func startStealSampler() *stealSampler {
	s := &stealSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if st := cpuStat(); st != nil {
				s.at = append(s.at, time.Now())
				s.stat = append(s.stat, st)
			}
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling; the samples are readable once it returns.
func (s *stealSampler) stop() {
	close(s.stopc)
	<-s.done
}

// stolen reports whether the hypervisor took any CPU time between the
// last sample at or before from and the first at or after to; with no
// such pair of samples it reports true.
func (s *stealSampler) stolen(from, to time.Time) bool {
	i, j := -1, -1
	for k, t := range s.at {
		if !t.After(from) {
			i = k
		}
		if !t.Before(to) && j < 0 {
			j = k
		}
	}
	if i < 0 || j < 0 || len(s.stat[i]) < 8 || len(s.stat[j]) < 8 {
		return true
	}
	return s.stat[j][7] > s.stat[i][7]
}
