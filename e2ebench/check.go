package main

import (
	"fmt"
	"math"

	"sparker/internal/mllib"
)

// refIters is how many leading iterations of the first timed job are
// recomputed by the sequential reference fold.
const refIters = 3

// unitRoundoff is u = 2^-53, the relative rounding error of one float64
// operation.
const unitRoundoff = 1.0 / (1 << 53)

// crossStrategyTol bounds the relative final_loss gap between the split
// and tree strategies on the same data. Their reductions may add the
// four partition aggregators in different orders, which can move the
// last bits of a gradient and let the gap grow over the iterations. At
// kdd10 sparsity few features occur in more than one partition, and the
// measured gap is 0.
const crossStrategyTol = 1e-9

// checkAgainstReference recomputes iterations of a training job with a
// plain sequential fold and compares them with what the engine handed
// the updater (steps) and reported (losses).
//
// For each recorded iteration the reference folds every partition of
// points, cut exactly as rdd.FromSlice cuts it, from zero with the
// per-point Gradient.Compute — the fold the packed kernels are
// bitwise-identical to — and adds the partition aggregators in
// partition order. The comparison is:
//
//   - bitwise when the engine adds the partition aggregators in that
//     same order: a single partition, or the tree strategy, whose driver
//     merges the partition aggregators in index order;
//   - otherwise within the reassociation bound. Reordering the sum of P
//     partials moves it by at most 2(P-1)·u·Σ|partial| (to first order),
//     and the division by the count adds u on each side, so a gradient
//     element or the data loss may differ by 4·P·u·Σ|partial|/count,
//     twice the first-order bound.
//
// The sample count must match exactly, and the regularization value is
// the stock updater's on the engine's own weights and gradient, which
// must agree bitwise.
func checkAgainstReference(w workload, points []mllib.LabeledPoint, parts int, steps []step, losses []float64) error {
	grad, stock := w.model()
	exact := parts == 1 || w.strategy == mllib.StrategyTree
	dim := w.features
	partial := make([]float64, dim+2)
	sum := make([]float64, dim+2)
	abs := make([]float64, dim+2)
	for t, st := range steps {
		if t >= len(losses) {
			return fmt.Errorf("iteration %d: no loss reported", t+1)
		}
		clear(sum)
		clear(abs)
		for p := 0; p < parts; p++ {
			clear(partial)
			lo, hi := p*len(points)/parts, (p+1)*len(points)/parts
			for _, pt := range points[lo:hi] {
				partial[dim] += grad.Compute(pt.Features, pt.Label, st.weights, partial[:dim])
				partial[dim+1]++
			}
			for j, v := range partial {
				sum[j] += v
				abs[j] += math.Abs(v)
			}
		}
		count := sum[dim+1]
		if count != float64(len(points)) {
			return fmt.Errorf("iteration %d: reference folded %v rows, want %d", t+1, count, len(points))
		}
		tol := func(j int) float64 {
			if exact {
				return 0
			}
			return 4 * float64(parts) * unitRoundoff * abs[j] / count
		}
		for j := 0; j < dim; j++ {
			want := sum[j] / count
			if d := math.Abs(st.gradient[j] - want); d > tol(j) || math.IsNaN(st.gradient[j]) {
				return fmt.Errorf("iteration %d: gradient[%d] = %v, reference %v (|diff| %.3g > bound %.3g)",
					t+1, j, st.gradient[j], want, d, tol(j))
			}
		}
		_, reg := stock.Update(st.weights, st.gradient, w.stepSize, t+1, w.regParam)
		if math.Float64bits(reg) != math.Float64bits(st.regVal) {
			return fmt.Errorf("iteration %d: regularization %v, stock updater gives %v", t+1, st.regVal, reg)
		}
		want := sum[dim]/count + reg
		// The loss adds the regularization value after the division, one
		// more rounding of the result.
		lossTol := tol(dim)
		if !exact {
			lossTol += 2 * unitRoundoff * math.Abs(want)
		}
		if d := math.Abs(losses[t] - want); d > lossTol || math.IsNaN(losses[t]) {
			return fmt.Errorf("iteration %d: loss %v, reference %v (|diff| %.3g > bound %.3g)",
				t+1, losses[t], want, d, lossTol)
		}
	}
	return nil
}

// sameBits reports whether two loss histories are bitwise identical. A
// fixed cluster geometry fixes every reduction order, so repeated jobs
// on one cluster must reproduce the first job's history exactly.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// crossCheck compares final losses of the same model trained with two
// strategies.
func crossCheck(got, other float64) error {
	if math.IsNaN(got) || math.IsNaN(other) || math.Abs(got-other) > crossStrategyTol*math.Abs(other) {
		return fmt.Errorf("final loss %v differs from the other strategy's %v by more than %g relative",
			got, other, crossStrategyTol)
	}
	return nil
}
