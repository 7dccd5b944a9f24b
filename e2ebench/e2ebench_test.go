package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"sparker/internal/mllib"
	"sparker/internal/transport"
)

// tiny returns a copy shrunk to a few thousand nonzeros: same model,
// strategy and code paths, milliseconds instead of minutes.
func (w workload) tiny() workload {
	w.rows = 400
	w.features = 300
	w.nnz = 8
	return w
}

// benchmarkSpec is the part of ../BENCHMARK.json the program must
// agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// requireMetrics checks that a run reported exactly the named metrics,
// with their units, as finite numbers.
func requireMetrics(t *testing.T, got []metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v", m.name, m.value)
		}
		units[m.name] = m.unit
	}
	if len(units) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(units), len(want))
	}
	for _, m := range want {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("metric %s: reported unit %q (present %v), want %q", m.Name, u, ok, m.Unit)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a tiny size through both
// the end-to-end and the traced run, output check included, and checks
// that the metrics match BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
		}
	}

	for _, w := range workloads() {
		w := w.tiny()
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, 7, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("end-to-end: %d of %d iterations failed: %v", res.failed, res.attempted, res.errs)
			}
			requireMetrics(t, res.metrics, spec.EndToEnd)

			res, err = runTraced(w, 7, 200*time.Millisecond, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("traced: %d of %d iterations failed: %v", res.failed, res.attempted, res.errs)
			}
			requireMetrics(t, res.metrics, spec.PerLayer)
			for _, m := range res.metrics {
				if m.name == "collective.ring_steps_per_iter" && (m.value == 0) != (w.strategy == mllib.StrategyTree) {
					t.Errorf("%s: ring steps per iteration %v", w.strategy, m.value)
				}
			}
		})
	}
}

// TestReferenceCheckCatchesWrongOutput feeds the output check engine
// results that are off by one unit in the last place (bitwise mode) or
// by far more than the reassociation bound (ring mode).
func TestReferenceCheckCatchesWrongOutput(t *testing.T) {
	for _, w := range workloads() {
		w := w.tiny()
		points := w.gen(3)
		for _, parts := range []int{1, 4} {
			exact := parts == 1 || w.strategy == mllib.StrategyTree
			steps, losses := referenceRun(w, points, parts)
			if err := checkAgainstReference(w, points, parts, steps, losses); err != nil {
				t.Fatalf("%s parts=%d: unperturbed run rejected: %v", w.name, parts, err)
			}
			bump := func(v float64) float64 {
				if exact {
					return math.Nextafter(v, math.Inf(1))
				}
				return v * (1 + 1e-9)
			}
			g := steps[1].gradient
			j := 0
			for g[j] == 0 {
				j++
			}
			g[j] = bump(g[j])
			if err := checkAgainstReference(w, points, parts, steps, losses); err == nil {
				t.Errorf("%s parts=%d: perturbed gradient accepted", w.name, parts)
			}
			steps, losses = referenceRun(w, points, parts)
			losses[2] = bump(losses[2])
			if err := checkAgainstReference(w, points, parts, steps, losses); err == nil {
				t.Errorf("%s parts=%d: perturbed loss accepted", w.name, parts)
			}
		}
	}
}

// referenceRun trains refIters iterations sequentially, folding each of
// parts partitions from zero and adding them in order, and records what
// an engine run would hand the updater.
func referenceRun(w workload, points []mllib.LabeledPoint, parts int) ([]step, []float64) {
	grad, stock := w.model()
	weights := make([]float64, w.features)
	var steps []step
	var losses []float64
	for it := 1; it <= refIters; it++ {
		acc := make([]float64, w.features)
		loss := 0.0
		for p := 0; p < parts; p++ {
			part := make([]float64, w.features)
			partLoss := 0.0
			for _, pt := range points[p*len(points)/parts : (p+1)*len(points)/parts] {
				partLoss += grad.Compute(pt.Features, pt.Label, weights, part)
			}
			for j, v := range part {
				acc[j] += v
			}
			loss += partLoss
		}
		n := float64(len(points))
		for j := range acc {
			acc[j] /= n
		}
		next, reg := stock.Update(weights, acc, w.stepSize, it, w.regParam)
		steps = append(steps, step{weights: weights, gradient: acc, regVal: reg})
		losses = append(losses, loss/n+reg)
		weights = next
	}
	return steps, losses
}

// TestCountingConnForwardsSendRetainer pins the wrapper's contract: the
// comm layer must see the wrapped transport's buffer ownership.
func TestCountingConnForwardsSendRetainer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inner  transport.Network
		retain bool
	}{
		{"tcp", transport.NewTCP(), false},
		{"mem", transport.NewMem(), true},
	} {
		n := newCountingNetwork(tc.inner)
		l, err := n.Listen("peer")
		if err != nil {
			t.Fatal(err)
		}
		accepted := make(chan transport.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				t.Error(err)
			}
			accepted <- c
		}()
		c, err := n.Dial("peer")
		if err != nil {
			t.Fatal(err)
		}
		peer := <-accepted
		for _, conn := range []transport.Conn{c, peer} {
			sr, ok := conn.(transport.SendRetainer)
			if !ok || sr.SendRetainsBuffer() != tc.retain {
				t.Errorf("%s: SendRetainer forwarded %v, retains %v; want %v", tc.name, ok, ok && sr.SendRetainsBuffer(), tc.retain)
			}
		}
		if err := c.Send([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		if b, err := peer.Recv(); err != nil || string(b) != "hello" {
			t.Fatalf("%s: received %q, %v", tc.name, b, err)
		}
		if n.msgs.Load() != 1 || n.bytes.Load() != 5 {
			t.Errorf("%s: counted %d messages, %d bytes; want 1, 5", tc.name, n.msgs.Load(), n.bytes.Load())
		}
		n.Close()
	}
}
