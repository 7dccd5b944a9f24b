package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sparker/internal/collective"
	"sparker/internal/rdd"
)

// TestIMMCallCounts pins the IMM adoption rule: each partition's fold
// starts from one Zero, the first task to reach an executor hands its
// aggregator over instead of merging it into another Zero, and only
// executors that received no partition create an empty one. The tree
// driver merge adopts its first decoded aggregator the same way.
func TestIMMCallCounts(t *testing.T) {
	const samples, dim = 90, 10
	for _, c := range []struct{ execs, parts int }{{3, 7}, {4, 2}, {2, 2}, {3, 1}} {
		for _, s := range []Strategy{StrategySplit, StrategyIMM} {
			t.Run(fmt.Sprintf("e%d/p%d/%v", c.execs, c.parts, s), func(t *testing.T) {
				ctx := testContext(t, c.execs, 2)
				var hosts sync.Map // partition -> executor that folded it
				r := rdd.Derive(vectorRDD(ctx, samples, c.parts),
					func(ec *rdd.ExecContext, part int, parent func() ([]int64, error)) ([]int64, error) {
						hosts.Store(part, ec.ID)
						return parent()
					})
				var zeros, merges atomic.Int64
				ops := collective.F64Ops()
				got, err := Aggregate(context.Background(), r, AggFuncs[int64, []float64, []float64]{
					Zero: func() []float64 {
						zeros.Add(1)
						return make([]float64, dim)
					},
					SeqOp: vecSeqOp,
					MergeOp: func(a, b []float64) []float64 {
						merges.Add(1)
						return AddF64(a, b)
					},
					SplitOp:  SplitSliceCopy[float64],
					ReduceOp: AddF64,
					ConcatOp: ConcatSlices[float64],
					Ops:      &ops,
				}, WithStrategy(s))
				if err != nil {
					t.Fatal(err)
				}
				if !vecsClose(got, expectedVector(samples, dim), 1e-9) {
					t.Fatalf("got %v want %v", got, expectedVector(samples, dim))
				}
				used := map[int]bool{}
				hosts.Range(func(_, id any) bool {
					used[id.(int)] = true
					return true
				})
				execs := ctx.NumLiveExecutors()
				wantZeros := c.parts + execs - len(used)
				wantMerges := c.parts - len(used)
				if s == StrategyIMM {
					// The driver adopts the first executor's aggregator.
					wantMerges += execs - 1
				}
				if z, m := zeros.Load(), merges.Load(); z != int64(wantZeros) || m != int64(wantMerges) {
					t.Fatalf("%d partitions on %d of %d executors: Zero called %d times, MergeOp %d; want %d and %d",
						c.parts, len(used), execs, z, m, wantZeros, wantMerges)
				}
			})
		}
	}
}
