package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refGrad folds the scalar per-point path (Dot → multiplier → Axpy,
// exactly what mllib's Gradient.Compute does) over the selected rows in
// order. It is the bitwise reference every kernel result must match.
func refGrad(kind CSRGradKind, m *CSRMatrix, rows []int32, w, cum []float64) (lossSum, count float64) {
	n := m.Rows()
	if rows != nil {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		x := m.Row(r)
		label := m.Label(r)
		var loss float64
		switch kind {
		case CSRLogistic:
			margin := -Dot(w, x)
			mult := 1.0/(1.0+math.Exp(margin)) - label
			Axpy(mult, x, cum)
			if label > 0 {
				loss = Log1pExp(margin)
			} else {
				loss = Log1pExp(margin) - margin
			}
		case CSRLeastSquares:
			diff := Dot(w, x) - label
			Axpy(diff, x, cum)
			loss = diff * diff / 2
		case CSRHinge:
			scaled := 2*label - 1
			dot := Dot(w, x)
			if 1-scaled*dot > 0 {
				Axpy(-scaled, x, cum)
				loss = 1 - scaled*dot
			}
		}
		lossSum += loss
		count++
	}
	return
}

// refKMeans folds the scalar nearest-center seqOp (mllib's sqDist
// arithmetic) over all rows in order, into TrainKMeans's accumulator
// layout.
func refKMeans(m *CSRMatrix, centers []float64, k, dim int, acc []float64) {
	for r := 0; r < m.Rows(); r++ {
		x := m.Row(r)
		best, bestDist := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			center := centers[c*dim : (c+1)*dim]
			var cNorm float64
			for _, v := range center {
				cNorm += v * v
			}
			var xNorm, dot float64
			for i, ix := range x.Indices {
				v := x.Values[i]
				xNorm += v * v
				dot += center[ix] * v
			}
			d := cNorm - 2*dot + xNorm
			if d < 0 {
				d = 0
			}
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		for i, ix := range x.Indices {
			acc[best*dim+int(ix)] += x.Values[i]
		}
		acc[k*dim+best]++
		acc[k*dim+k] += bestDist
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x) want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var csrKernelKinds = []struct {
	name string
	kind CSRGradKind
}{
	{"logistic", CSRLogistic},
	{"leastsquares", CSRLeastSquares},
	{"hinge", CSRHinge},
}

// TestCSRGradBitwise is the gating property test for GDConfig.Packed:
// for every gradient family, partition shape, and worker count, the
// fused kernel's (cum, loss, count) must equal the sequential per-point
// fold bit for bit.
func TestCSRGradBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		rows, dim int
		density   float64
	}{
		{0, 5, 0.5},    // empty partition
		{1, 40, 0.3},   // single row
		{3, 8, 0.9},    // tiny, below parallel cutoff
		{300, 64, 0.9}, // dense-ish
		{500, 200, 0.05},
		{400, 100, -1}, // mixed degenerate rows
	}
	for _, kc := range csrKernelKinds {
		for si, s := range shapes {
			m := randCSR(rng, s.rows, s.dim, s.density)
			w := make([]float64, m.Dim)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			refCum := make([]float64, m.Dim)
			refLoss, refCount := refGrad(kc.kind, m, nil, w, refCum)
			for _, workers := range []int{1, 2, 3, 8} {
				cum := make([]float64, m.Dim)
				loss, count := CSRGrad(kc.kind, m, nil, w, cum, workers)
				if math.Float64bits(loss) != math.Float64bits(refLoss) || count != refCount {
					t.Fatalf("%s shape%d w%d: loss/count %v/%v want %v/%v",
						kc.name, si, workers, loss, count, refLoss, refCount)
				}
				bitsEqual(t, kc.name+"/cum", cum, refCum)
			}
		}
	}
}

// TestCSRGradSampledBitwise covers the minibatch path: a sampled row
// subset (with repeats-free but arbitrary-order indices) folds
// identically through the kernel at any worker count.
func TestCSRGradSampledBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randCSR(rng, 400, 80, -1)
	w := make([]float64, m.Dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, frac := range []float64{0, 0.01, 0.3, 1} {
		var rows []int32
		for r := 0; r < m.Rows(); r++ {
			if rng.Float64() < frac {
				rows = append(rows, int32(r))
			}
		}
		if rows == nil {
			rows = []int32{}
		}
		for _, kc := range csrKernelKinds {
			refCum := make([]float64, m.Dim)
			refLoss, refCount := refGrad(kc.kind, m, rows, w, refCum)
			for _, workers := range []int{1, 4, 8} {
				cum := make([]float64, m.Dim)
				loss, count := CSRGrad(kc.kind, m, rows, w, cum, workers)
				if math.Float64bits(loss) != math.Float64bits(refLoss) || count != refCount {
					t.Fatalf("%s frac=%v w%d: loss/count %v/%v want %v/%v",
						kc.name, frac, workers, loss, count, refLoss, refCount)
				}
				bitsEqual(t, kc.name+"/cum", cum, refCum)
			}
		}
	}
}

// TestCSRHingeZeroMultiplier pins the ±0 edge: an inactive hinge row
// performs no accumulator writes at all (matching the scalar path,
// which skips Axpy), while an active row with scaled == 0 (pathological
// label 0.5 → mult -0) still scatters. 0·v additions would flip -0
// accumulator elements, so skipping must key on the sign bit.
func TestCSRHingeZeroMultiplier(t *testing.T) {
	b := NewCSRBuilder(4, 0, 0)
	// label 1 → scaled 1; dot will be 2 → 1-2 < 0 → inactive.
	if err := b.AppendRow(1, []int32{0}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	// label 0.5 → scaled 0 → 1-0 > 0 → active with mult = -0.
	if err := b.AppendRow(0.5, []int32{1, 2}, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 0, 0, 0}
	for _, workers := range []int{1, 8} {
		// Seed cum with -0 so any spurious += 0 write flips it to +0.
		cum := []float64{math.Copysign(0, -1), math.Copysign(0, -1), 1, math.Copysign(0, -1)}
		refCum := append([]float64(nil), cum...)
		refLoss, _ := refGrad(CSRHinge, m, nil, w, refCum)
		loss, _ := CSRGrad(CSRHinge, m, nil, w, cum, workers)
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("w%d: loss %v want %v", workers, loss, refLoss)
		}
		bitsEqual(t, "cum", cum, refCum)
		if !math.Signbit(cum[0]) == math.Signbit(refCum[0]) {
			t.Fatal("sign bit mismatch on untouched element")
		}
	}
}

// TestCSRKMeansBitwise gates the packed KMeans path the same way.
func TestCSRKMeansBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := []struct {
		rows, dim, k int
	}{
		{0, 6, 2}, {1, 10, 3}, {250, 32, 5}, {400, 80, 8},
	}
	for si, s := range shapes {
		m := randCSR(rng, s.rows, s.dim, -1)
		m.Labels = nil
		centers := make([]float64, s.k*m.Dim)
		for i := range centers {
			centers[i] = rng.NormFloat64()
		}
		ref := make([]float64, s.k*m.Dim+s.k+1)
		refKMeans(m, centers, s.k, m.Dim, ref)
		cNorms := make([]float64, s.k)
		CSRKMeansCenterNorms(centers, s.k, m.Dim, cNorms)
		for _, workers := range []int{1, 2, 8} {
			acc := make([]float64, len(ref))
			CSRKMeans(m, centers, cNorms, s.k, m.Dim, acc, workers)
			if len(acc) != len(ref) {
				t.Fatal("length mismatch")
			}
			for i := range ref {
				if math.Float64bits(acc[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("shape%d w%d acc[%d]: got %v want %v", si, workers, i, acc[i], ref[i])
				}
			}
		}
	}
}

// sparseColsCSR builds a labeled matrix whose entries fall only in the
// columns cols (each row takes a random subset, ascending), so the
// caller controls how many — and which — columns are non-empty.
func sparseColsCSR(rng *rand.Rand, rows, dim int, cols []int32, density float64) *CSRMatrix {
	b := NewCSRBuilder(dim, rows, 0)
	for r := 0; r < rows; r++ {
		b.StartRow(float64(rng.Intn(2)))
		for _, j := range cols {
			if rng.Float64() < density {
				if err := b.AppendEntry(j, rng.NormFloat64()); err != nil {
					panic(err)
				}
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// TestCSRCompressedViewBitwise gates the CSC view over non-empty
// columns: for shapes that stress the compression (mostly-empty wide
// dimensions, shards and lanes that own no column, no entries at all,
// every column present), the full-batch gradient and KMeans kernels
// must equal the fused sequential passes bit for bit at every worker
// count, and the view must list exactly the distinct columns.
func TestCSRCompressedViewBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const dim = 20000
	var wide []int32 // ~5% of a wide dimension, scattered
	for j := 0; j < dim; j++ {
		if rng.Intn(20) == 0 {
			wide = append(wide, int32(j))
		}
	}
	all := make([]int32, 48)
	for j := range all {
		all[j] = int32(j)
	}
	cases := []struct {
		name string
		m    *CSRMatrix
	}{
		// dim >> nnz: >= 90% of the columns are empty.
		{"wide", sparseColsCSR(rng, 300, dim, wide, 0.01)},
		// Mass in the first and last column only: the nnz-balanced
		// dimension cuts leave whole shards (and most lanes) with no
		// non-empty column.
		{"ends", sparseColsCSR(rng, 200, dim, []int32{0, dim - 1}, 0.7)},
		// Rows but no nonzeros.
		{"empty", sparseColsCSR(rng, 100, dim, nil, 1)},
		// Every column present (the avazu shape): the view is the
		// identity mapping.
		{"all", sparseColsCSR(rng, 300, len(all), all, 0.6)},
	}
	for _, c := range cases {
		m := c.m
		distinct := map[int32]bool{}
		for _, ix := range m.Indices {
			distinct[ix] = true
		}
		if v := m.cscView(); len(v.cols) != len(distinct) || len(v.offs) != len(v.cols)+1 {
			t.Fatalf("%s: view lists %d columns (%d offsets), want %d distinct",
				c.name, len(v.cols), len(v.offs), len(distinct))
		}
		switch c.name {
		case "wide":
			if empty := 1 - float64(len(distinct))/float64(m.Dim); empty < 0.9 {
				t.Fatalf("wide: only %.0f%% of columns empty", 100*empty)
			}
		case "ends":
			cuts := m.cscCutsInto(nil, 4)
			idle := 0
			for s := 0; s < 4; s++ {
				if cuts[s] == cuts[s+1] {
					idle++
				}
			}
			if idle == 0 {
				t.Fatalf("ends: cuts %v leave no shard empty", cuts)
			}
		case "all":
			if len(distinct) != m.Dim {
				t.Fatalf("all: %d of %d columns present", len(distinct), m.Dim)
			}
		}
		w := make([]float64, m.Dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		for _, kc := range csrKernelKinds {
			refCum := make([]float64, m.Dim)
			refLoss := csrGradSeq(kc.kind, m, nil, w, refCum)
			for workers := 1; workers <= 4; workers++ {
				cum := make([]float64, m.Dim)
				loss, count := CSRGrad(kc.kind, m, nil, w, cum, workers)
				if math.Float64bits(loss) != math.Float64bits(refLoss) || count != float64(m.Rows()) {
					t.Fatalf("%s %s w%d: loss/count %v/%v want %v/%d",
						c.name, kc.name, workers, loss, count, refLoss, m.Rows())
				}
				bitsEqual(t, c.name+"/"+kc.name+"/cum", cum, refCum)
			}
		}
		const k = 3
		centers := make([]float64, k*m.Dim)
		for i := range centers {
			centers[i] = rng.NormFloat64()
		}
		cNorms := make([]float64, k)
		CSRKMeansCenterNorms(centers, k, m.Dim, cNorms)
		ref := make([]float64, k*m.Dim+k+1)
		csrKMeansSeq(m, centers, cNorms, k, m.Dim, ref)
		for workers := 1; workers <= 4; workers++ {
			acc := make([]float64, len(ref))
			CSRKMeans(m, centers, cNorms, k, m.Dim, acc, workers)
			bitsEqual(t, c.name+"/kmeans", acc, ref)
		}
	}
}

// TestOneWorkerPassBuildsNoCSCView guards the packed kernels' memory
// rule: a one-worker full-batch pass takes the fused sweep and never
// builds the CSC view (a second, column-major copy of the partition,
// 12 bytes per nonzero), for every gradient kind and for KMeans; a
// two-worker pass does build it.
func TestOneWorkerPassBuildsNoCSCView(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	built := func(m *CSRMatrix) bool { return m.csc.offs != nil }
	const rows, dim = 300, 64
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, kc := range csrKernelKinds {
		m := randCSR(rng, rows, dim, 0.3)
		cum := make([]float64, dim)
		CSRGrad(kc.kind, m, nil, w, cum, 1)
		if built(m) {
			t.Fatalf("%s: one-worker pass built the CSC view", kc.name)
		}
		CSRGrad(kc.kind, m, nil, w, cum, 2)
		if !built(m) {
			t.Fatalf("%s: two-worker pass did not build the CSC view", kc.name)
		}
	}
	const k = 3
	m := randCSR(rng, rows, dim, 0.3)
	centers := make([]float64, k*dim)
	for i := range centers {
		centers[i] = rng.NormFloat64()
	}
	cNorms := make([]float64, k)
	CSRKMeansCenterNorms(centers, k, dim, cNorms)
	acc := make([]float64, k*dim+k+1)
	CSRKMeans(m, centers, cNorms, k, dim, acc, 1)
	if built(m) {
		t.Fatal("kmeans: one-worker pass built the CSC view")
	}
	CSRKMeans(m, centers, cNorms, k, dim, acc, 2)
	if !built(m) {
		t.Fatal("kmeans: two-worker pass did not build the CSC view")
	}
}

// TestPackedKernelOverhead is the `make overhead` gate: steady-state
// fused gradient iterations allocate nothing, sequential or sharded.
func TestPackedKernelOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randCSR(rng, 2000, 128, 0.15)
	w := make([]float64, m.Dim)
	cum := make([]float64, m.Dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"seq", 1}, {"cores4", 4},
	} {
		// Warm up: pool scratch, lazy column histogram.
		CSRGrad(CSRLogistic, m, nil, w, cum, cfg.workers)
		allocs := testing.AllocsPerRun(50, func() {
			CSRGrad(CSRLogistic, m, nil, w, cum, cfg.workers)
		})
		if allocs != 0 {
			t.Errorf("packed row loop (%s): %.1f allocs/op, want 0", cfg.name, allocs)
		}
	}
}

// benchCSR builds the dense-profile shape used by the compute sweep:
// uniform rows of ~15-20 entries.
func benchCSR(rows, dim int) (*CSRMatrix, []float64) {
	rng := rand.New(rand.NewSource(6))
	b := NewCSRBuilder(dim, rows, rows*18)
	for r := 0; r < rows; r++ {
		b.StartRow(float64(rng.Intn(2)))
		nnz := 15 + rng.Intn(6)
		stride := dim / nnz
		for j := 0; j < nnz; j++ {
			if err := b.AppendEntry(int32(j*stride+rng.Intn(stride)), rng.NormFloat64()); err != nil {
				panic(err)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return m, w
}

func BenchmarkGradPerPoint(b *testing.B) {
	m, w := benchCSR(20000, 1000)
	cum := make([]float64, m.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refGrad(CSRLogistic, m, nil, w, cum)
	}
	b.ReportMetric(float64(m.Rows())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkGradPacked times one full-batch kernel pass per partition
// shape and worker count: the compute sweep's 20,000 × 1,000 shape,
// and one partition of each e2ebench workload (lr-avazu-split:
// 112,516 rows × 10,000 columns × 15 nonzeros, logistic;
// svm-kdd10: 5,000 × 1,010,841 × 30, hinge). c1 is the fused sweep a
// one-core executor runs; c2 and c4 are the two-phase margin + CSC
// scatter path. Run with
//
//	go test -run '^$' -bench GradPacked ./internal/linalg
func BenchmarkGradPacked(b *testing.B) {
	shapes := []struct {
		name    string
		kind    CSRGradKind
		build   func() (*CSRMatrix, []float64)
		workers []int
	}{
		{"sweep", CSRLogistic, func() (*CSRMatrix, []float64) { return benchCSR(20000, 1000) }, []int{1, 4}},
		{"avazu", CSRLogistic, func() (*CSRMatrix, []float64) { return benchUniform(112516, 10000, 15) }, []int{1, 2}},
		{"kdd10", CSRHinge, func() (*CSRMatrix, []float64) { return benchUniform(5000, 1010841, 30) }, []int{1, 2}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			m, w := s.build()
			cum := make([]float64, m.Dim)
			for _, workers := range s.workers {
				b.Run(fmt.Sprintf("c%d", workers), func(b *testing.B) {
					CSRGrad(s.kind, m, nil, w, cum, workers) // build the CSC view, warm the scratch pool
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						CSRGrad(s.kind, m, nil, w, cum, workers)
					}
					b.ReportMetric(float64(m.Rows())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
				})
			}
		})
	}
}

// benchUniform builds a labeled partition the way the e2ebench data
// generator draws one: each row holds nnz ±25% distinct, uniformly
// random columns, ascending, with N(0,1) values. It returns the matrix
// and random weights.
func benchUniform(rows, dim, nnz int) (*CSRMatrix, []float64) {
	rng := rand.New(rand.NewSource(7))
	b := NewCSRBuilder(dim, rows, rows*nnz)
	row := make([]int32, 0, 2*nnz)
	for r := 0; r < rows; r++ {
		b.StartRow(float64(rng.Intn(2)))
		k := nnz + rng.Intn(nnz/2+1) - nnz/4
		row = row[:0]
		for len(row) < k {
			if j := int32(rng.Intn(dim)); !slices.Contains(row, j) {
				row = append(row, j)
			}
		}
		slices.Sort(row)
		for _, j := range row {
			if err := b.AppendEntry(j, rng.NormFloat64()); err != nil {
				panic(err)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	w := make([]float64, dim)
	for i := range w {
		w[i] = 0.1 * rng.NormFloat64()
	}
	return m, w
}
