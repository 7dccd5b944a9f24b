// Command e2ebench is the standing end-to-end training benchmark. It
// trains logistic regression and SVM on the real engine — rdd, sched,
// core, collective, comm and transport under mllib and linalg — over
// TCP loopback, checks every output against a sequential reference
// fold, and prints each metric by name and unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// From the repository root:
//
//	bash e2ebench/run.sh --workload svm-kdd10-split --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the
// separate traced run that reports the per-layer metrics. README.md
// describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sparker/internal/mllib"
	"sparker/internal/transport"
)

// e2eSetups is how many times an end-to-end run sets the workload up;
// setup_s is their median.
const e2eSetups = 5

// Paper reference points for core.agg_share: the aggregation share of
// an MLlib iteration the paper measured on Spark (§2, Fig. 2) and the
// share the repository's simulator reproduces (EXPERIMENTS.md, Fig 2).
const (
	paperAggShare     = 0.6769
	simulatorAggShare = 0.814
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is what one run reports.
type result struct {
	metrics           []metric
	attempted, failed int
	errs              []error
	notes             []string
}

func (r *result) add(win *window) {
	r.attempted += win.attempted
	r.failed += win.failed
	r.errs = append(r.errs, win.errs...)
}

func main() {
	name := flag.String("workload", "", "workload name: lr-avazu-split, svm-kdd10-split or svm-kdd10-tree")
	seed := flag.Int64("seed", 1, "seed of the generated training data")
	seconds := flag.Float64("seconds", 15, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload error: %v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, d)
	} else {
		res, err = runTraced(w, *seed, d, filepath.Join(".bench_build", "e2ebench", fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	report(os.Stdout, w, *seed, *trace, res)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// runEndToEnd sets the workload up e2eSetups times on the benchmark
// geometry, then trains back to back on the last cluster for d with
// tracing off.
func runEndToEnd(w workload, seed int64, d time.Duration) (*result, error) {
	var setups []float64
	var c *cluster
	var points []mllib.LabeledPoint
	for i := 0; i < e2eSetups; i++ {
		if c != nil {
			c.close()
			c, points = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		points = w.gen(seed)
		var err error
		if c, _, err = boot("e2e", w, benchGeometry, transport.NewTCP(), points, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	steal0, err := hostStealSeconds()
	if err != nil {
		return nil, err
	}
	win := measure(c, w, d, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	steal1, err := hostStealSeconds()
	if err != nil {
		return nil, err
	}
	verify(c, w, points, win, true)
	if len(win.walls) == 0 {
		return nil, fmt.Errorf("no training job completed: %v", win.errs)
	}
	iters := float64(len(win.walls))
	res := &result{metrics: []metric{
		{"iter_p50_ms", "ms", win.quantileMS(0.5)},
		{"iter_p90_ms", "ms", win.quantileMS(0.9)},
		{"samples_per_s", "1/s", float64(w.rows) * iters / win.total().Seconds()},
		{"setup_s", "s", median(setups)},
		{"cpu_ms_per_iter", "ms", float64(win.cpu) / 1e6 / iters},
		{"peak_rss_mb", "MB", rss},
		{"final_loss", "loss", win.history[len(win.history)-1]},
	}}
	res.add(win)
	res.notes = append(res.notes,
		fmt.Sprintf("timed: %d iterations in %d jobs of %d (%d beyond p90); setups %.3v s",
			len(win.walls), win.jobs, w.iters, len(win.walls)/10, setups),
		fmt.Sprintf("fail_frac %v (%d of %d iterations)", float64(win.failed)/float64(win.attempted), win.failed, win.attempted),
		fmt.Sprintf("host CPU steal during the window: %.2f s over %d vCPUs × %.1f s", steal1-steal0, runtime.NumCPU(), win.elapsed.Seconds()))
	return res, nil
}

// runTraced is the separate traced run. It measures, in order:
//
//  1. an untraced window on the benchmark geometry (the reference for
//     trace.overhead_share);
//  2. a traced window on the same geometry over the counting transport,
//     with spans and instrument snapshots: the per-layer metrics;
//  3. the single-worker baseline, 1 executor × 1 core;
//  4. 1 executor × 2 cores on the same single partition, whose ratio to
//     the baseline is the packed kernel's measured within-task scaling.
//
// Windows 1 and 2 get d/2 each, windows 3 and 4 d/4 each. Every window
// runs the output check.
func runTraced(w workload, seed int64, d time.Duration, spansPath string) (*result, error) {
	res := &result{}
	sp := newSpanLog()
	t0 := time.Now()
	points := w.gen(seed)
	genS := time.Since(t0).Seconds()
	sp.add("data.gen", 0, t0, time.Now())

	plain, _, err := boot("e2e-untraced", w, benchGeometry, transport.NewTCP(), points, nil, 0)
	if err != nil {
		return nil, err
	}
	untraced := measure(plain, w, d/2, nil)
	verify(plain, w, points, untraced, true)
	plain.close()
	res.add(untraced)

	cn := newCountingNetwork(transport.NewTCP())
	setup := sp.open("setup", 0)
	tc, st, err := boot("e2e-traced", w, benchGeometry, cn, points, sp, setup)
	sp.close(setup)
	if err != nil {
		return nil, err
	}
	before := snapshot(tc.ctx, cn)
	traced := measure(tc, w, d/2, sp)
	after := snapshot(tc.ctx, cn)
	verify(tc, w, points, traced, false)
	tc.close()
	res.add(traced)

	single := func(name string, cores int) (*window, error) {
		c, _, err := boot(name, w, geometry{executors: 1, cores: cores, parts: 1}, transport.NewTCP(), points, nil, 0)
		if err != nil {
			return nil, err
		}
		defer c.close()
		win := measure(c, w, d/4, nil)
		verify(c, w, points, win, false)
		res.add(win)
		return win, nil
	}
	base, err := single("e2e-baseline", 1)
	if err != nil {
		return nil, err
	}
	c2, err := single("e2e-c2", 2)
	if err != nil {
		return nil, err
	}
	for _, win := range []*window{untraced, traced, base, c2} {
		if len(win.walls) == 0 {
			return nil, fmt.Errorf("a window completed no training job: %v", win.errs)
		}
	}

	res.metrics = append([]metric{
		{"data.gen_s", "s", genS},
		{"rdd.boot_s", "s", st.boot.Seconds()},
		{"rdd.cache_s", "s", st.cache.Seconds()},
		{"rdd.warmup_s", "s", st.warmup.Seconds()},
	}, layerMetrics(before, after, len(traced.walls), traced.total(), traced.update, w.rows)...)
	res.metrics = append(res.metrics,
		metric{"trace.overhead_share", "share", traced.quantileMS(0.5)/untraced.quantileMS(0.5) - 1},
		metric{"baseline.iter_p50_ms", "ms", base.quantileMS(0.5)},
		metric{"mllib.packed_c2_speedup", "x", base.quantileMS(0.5) / c2.quantileMS(0.5)},
	)
	for _, m := range res.metrics {
		if m.name == "core.agg_share" {
			res.notes = append(res.notes, fmt.Sprintf("core.agg_share %.2f%% (paper, Spark MLlib: %.2f%%; simulator: %.1f%%)",
				100*m.value, 100*paperAggShare, 100*simulatorAggShare))
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("iterations: untraced %d, traced %d, baseline %d, c2 %d",
		len(untraced.walls), len(traced.walls), len(base.walls), len(c2.walls)))
	if err := sp.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.notes = append(res.notes, "spans: "+spansPath)
	return res, nil
}

// report prints the host facts, every metric with its unit, any notes
// and errors, and last the JSON result line.
func report(out io.Writer, w workload, seed int64, trace int, res *result) {
	fmt.Fprintf(out, "e2ebench %s seed=%d trace=%d  host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		w.name, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "cluster %d executors × %d core over TCP loopback, %d rows × %d features, %d nnz/row, %v strategy, %d iterations/job\n",
		benchGeometry.executors, benchGeometry.cores, w.rows, w.features, w.nnz, w.strategy, w.iters)
	for _, m := range res.metrics {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	for _, e := range res.errs {
		fmt.Fprintf(out, "  ! %v\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms})
	if err != nil {
		// Only a NaN or infinite metric makes Marshal fail.
		fmt.Fprintf(os.Stderr, "e2ebench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
}
