package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparker/internal/mllib"
)

// window is one timed stretch of back-to-back training jobs on one
// cluster: a closed loop with one client, each job starting when the
// previous one returns.
type window struct {
	walls     []time.Duration // per iteration, jobs that returned
	update    time.Duration   // updater self time over walls
	jobs      int
	attempted int // iterations started
	failed    int // iterations of jobs that errored or failed a check
	history   []float64
	steps     []step // the first job's leading iterations, for the reference
	cpu       time.Duration
	elapsed   time.Duration
	errs      []error
}

func (win *window) fail(err error) {
	if len(win.errs) < 4 {
		win.errs = append(win.errs, err)
	}
}

// measure trains back to back for d (at least one job) and times every
// iteration through the updater wrapper.
func measure(c *cluster, w workload, d time.Duration, sp *spanLog) *window {
	_, stock := w.model()
	win := &window{}
	cpu0 := cpuTime()
	start := time.Now()
	for win.jobs == 0 || time.Since(start) < d {
		u := &timedUpdater{inner: stock, sp: sp}
		if win.history == nil {
			u.keep = refIters
		}
		u.job = sp.open("mllib.train", 0)
		u.last = time.Now()
		losses, err := c.trainJob(w, w.strategy, w.iters, u)
		sp.close(u.job)
		win.jobs++
		win.attempted += w.iters
		switch {
		case err != nil:
			win.failed += w.iters
			win.fail(fmt.Errorf("job %d: %w", win.jobs, err))
			continue
		case win.history == nil:
			win.history, win.steps = losses, u.captures
		case !sameBits(losses, win.history):
			win.failed += w.iters
			win.fail(fmt.Errorf("job %d: loss history differs bitwise from the first job's", win.jobs))
		}
		win.walls = append(win.walls, u.walls...)
		win.update += u.self
	}
	win.cpu = cpuTime() - cpu0
	win.elapsed = time.Since(start)
	return win
}

// verify runs the output check on a finished window: the reference fold
// over its first job and, with cross set, a job of the other strategy
// that must reach the same final loss. A failed check fails every
// iteration, since all jobs reproduced the first job's history.
func verify(c *cluster, w workload, points []mllib.LabeledPoint, win *window, cross bool) {
	if win.history == nil {
		win.failed = win.attempted
		return
	}
	err := checkAgainstReference(w, points, c.geom.parts, win.steps, win.history)
	if other, ok := w.other(); ok && cross && err == nil {
		var losses []float64
		if losses, err = c.trainJob(w, other, w.iters, nil); err == nil {
			err = crossCheck(win.history[len(win.history)-1], losses[len(losses)-1])
		}
		if err != nil {
			err = fmt.Errorf("%v vs %v: %w", w.strategy, other, err)
		}
	}
	if err != nil {
		win.failed = win.attempted
		win.fail(fmt.Errorf("output check: %w", err))
	}
}

func (win *window) total() time.Duration {
	var t time.Duration
	for _, d := range win.walls {
		t += d
	}
	return t
}

// quantileMS is the q-quantile of the iteration walls in milliseconds,
// interpolating linearly between order statistics.
func (win *window) quantileMS(q float64) float64 {
	s := append([]time.Duration(nil), win.walls...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1]) / 1e6
	}
	f := pos - float64(i)
	return (float64(s[i])*(1-f) + float64(s[i+1])*f) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostStealSeconds is the CPU time the hypervisor has taken from this
// machine's vCPUs since boot: the steal column of /proc/stat, in
// USER_HZ (100) ticks. Time other tenants take shows up here and not in
// the process's own CPU time, so it tells a slow run on a busy host
// from a slow program.
func hostStealSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("parsing steal ticks %q: %w", f[8], err)
	}
	return ticks / 100, nil
}

// resetPeakRSS returns freed heap to the operating system and restarts
// the kernel's resident-set high-water mark from the current size, so
// the next peakRSSMB covers only what runs in between: without it the
// mark would depend on how set-up garbage happened to line up with
// collections.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) of the
// process.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
