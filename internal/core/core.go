// Package core implements Sparker's contribution: the Split
// Aggregation Interface (SAI) and In-Memory Merge (IMM) on top of the
// rdd engine.
//
// Three aggregation strategies are provided, matching the paper's
// Figure 16 comparison:
//
//   - TreeAggregate — re-exported Spark baseline (rdd.TreeAggregate):
//     per-task serialized results, combiner stages, serial driver merge.
//   - TreeAggregateIMM — tree aggregation with in-memory merge: tasks
//     on the same executor merge into a shared aggregator inside the
//     mutable object manager before anything is serialized, so only one
//     result per executor crosses the wire (§3.2, Figure 8).
//   - SplitAggregate — the full design (§3.1, Figure 6): IMM leaves one
//     aggregator per executor, a statically placed stage (SpawnRDD,
//     §4.3) splits each into P×N segments with splitOp and runs ring
//     reduce-scatter over the parallel directed ring, and the driver
//     gathers the reduced segments and reassembles them with concatOp.
//
// Type parameters follow the paper: T is the element type, U the
// aggregator type, V the aggregator-segment type. U and V may differ —
// the paper's abstract-aggregator argument — and both must be
// serde-encodable where they cross executor boundaries (U for IMM
// fetches, V for reduce-scatter traffic).
//
// One signature deviation from Figure 6: SplitAggregate and
// TreeAggregateIMM take mergeOp (U, U) → U for the intra-executor
// merge. The paper's shared in-memory value is merged with the
// aggregator class's own merge method (Figure 7, line 6), which its
// interface listing leaves implicit; Go has no method requirement to
// hang that on, so the callback is explicit.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"sparker/internal/collective"
	"sparker/internal/metrics"
	"sparker/internal/rdd"
	"sparker/internal/serde"
	"sparker/internal/trace"
)

// Options tunes split aggregation.
//
// Deprecated: use the AggOption functional options of Aggregate
// (WithParallelism). Retained so existing call sites keep compiling.
type Options struct {
	// Parallelism is the number of PDR channels (and reduce-scatter
	// threads) per executor. Defaults to the context's RingParallelism
	// (the paper settles on 4).
	Parallelism int
}

// identityFuncs adapts a (zero, seqOp, mergeOp) triple to AggFuncs for
// the strategies that never split: the aggregator doubles as the sole
// segment. SplitOp is only ever invoked as SplitOp(u, 0, 1).
func identityFuncs[T, U any](zero func() U, seqOp func(U, T) U, mergeOp func(U, U) U) AggFuncs[T, U, U] {
	return AggFuncs[T, U, U]{
		Zero:    zero,
		SeqOp:   seqOp,
		MergeOp: mergeOp,
		SplitOp: func(u U, i, n int) U {
			if i != 0 || n != 1 {
				panic(fmt.Sprintf("core: identity SplitOp called with (%d, %d)", i, n))
			}
			return u
		},
		ReduceOp: mergeOp,
		ConcatOp: func(vs []U) U { return vs[0] },
	}
}

// TreeAggregate is the Spark baseline. See rdd.TreeAggregate.
//
// Deprecated: use Aggregate with WithStrategy(StrategyTree).
func TreeAggregate[T, U any](r *rdd.RDD[T], zero func() U, seqOp func(U, T) U, reduceOp func(U, U) U, depth int) (U, error) {
	return Aggregate(context.Background(), r, identityFuncs(zero, seqOp, reduceOp),
		WithStrategy(StrategyTree), WithDepth(depth))
}

// immState is the per-executor shared aggregator for one aggregation.
type immState[U any] struct {
	agg   U
	tasks int // number of task results merged in; 0: agg is unset
}

// runIMMStage executes the reduced-result stage: every partition is
// folded with seqOp from a fresh Zero, and the result is merged into
// the executor's shared aggregator with mergeOp. The first task to
// reach an executor hands its aggregator over instead: Zero is
// MergeOp's identity (see AggFuncs), so adopting it equals merging it
// into a fresh Zero — minus a full-size allocation, clear and merge per
// executor. On any task failure the stage's shared values (adopted
// ones included) are cleared on every executor and the whole stage
// re-submitted (§3.2). Afterwards each executor that received a
// partition holds exactly one aggregator under prefix+"agg".
func runIMMStage[T, U any](r *rdd.RDD[T], prefix string, parent trace.SpanContext, tenant string, zero func() U, seqOp func(U, T) U, mergeOp func(U, U) U) error {
	ctx := r.Context()
	key := prefix + "agg"
	_, err := ctx.RunJob(rdd.JobSpec{
		Tenant:      tenant,
		Tasks:       r.NumPartitions(),
		TraceParent: parent,
		Fn: func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
			data, err := r.Materialize(ec, task)
			if err != nil {
				return nil, err
			}
			// Fold locally first so executor cores compute in parallel;
			// only the final merge serializes on the shared object.
			acc := zero()
			for _, v := range data {
				acc = seqOp(acc, v)
			}
			obj := ec.MutObjs.GetOrCreate(key, func() any { return &immState[U]{} })
			obj.Update(func(v any) any {
				st := v.(*immState[U])
				if st.tasks == 0 {
					st.agg = acc
				} else {
					st.agg = mergeOp(st.agg, acc)
				}
				st.tasks++
				return st
			})
			// A reduced-result task returns only (executor id, object
			// id) — the aggregator itself stays in executor memory.
			return []byte(fmt.Sprintf("%d:%s", ec.ID, key)), nil
		},
		StageCleanup: func(ec *rdd.ExecContext) error {
			ec.MutObjs.ClearPrefix(prefix)
			return nil
		},
	})
	return err
}

// runOnAllExecutorsTenant mirrors rdd.RunOnAllExecutors (one task per
// LIVE executor) with the stage charged to a fair-share tenant. The
// returned payloads are dense, in live order.
func runOnAllExecutorsTenant(ctx *rdd.Context, tenant string, fn func(ec *rdd.ExecContext, task, attempt int) ([]byte, error)) ([][]byte, error) {
	placement := append([]int(nil), ctx.LiveExecutors()...)
	if len(placement) == 0 {
		return nil, nil
	}
	return ctx.RunJob(rdd.JobSpec{Tenant: tenant, Tasks: len(placement), Placement: placement, Fn: fn})
}

// cleanupIMM drops the aggregation's shared state everywhere.
func cleanupIMM(ctx *rdd.Context, prefix string) {
	ctx.RunOnAllExecutors(func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		ec.MutObjs.ClearPrefix(prefix)
		return nil, nil
	})
}

// sharedAgg returns the executor's merged aggregator, creating a zero
// one when the executor received no partitions.
func sharedAgg[U any](ec *rdd.ExecContext, key string, zero func() U) U {
	obj := ec.MutObjs.GetOrCreate(key, func() any {
		return &immState[U]{agg: zero()}
	})
	var out U
	obj.Read(func(v any) { out = v.(*immState[U]).agg })
	return out
}

// TreeAggregateIMM performs tree aggregation with in-memory merge:
// the reduced-result stage leaves one aggregator per executor, and a
// second stage serializes each of those for a serial driver merge. The
// reduction remains tree-shaped (driver-bound); only the serialization
// volume shrinks from one result per task to one per executor.
//
// Deprecated: use Aggregate with WithStrategy(StrategyIMM).
func TreeAggregateIMM[T, U any](r *rdd.RDD[T], zero func() U, seqOp func(U, T) U, mergeOp func(U, U) U) (U, error) {
	return Aggregate(context.Background(), r, identityFuncs(zero, seqOp, mergeOp),
		WithStrategy(StrategyIMM))
}

// treeAggregateIMM is the StrategyIMM implementation shared by
// Aggregate and the deprecated TreeAggregateIMM wrapper.
func treeAggregateIMM[T, U any](cctx context.Context, r *rdd.RDD[T], tenant string, zero func() U, seqOp func(U, T) U, mergeOp func(U, U) U) (U, error) {
	var zu U
	ctx := r.Context()
	prefix := fmt.Sprintf("imm/%d/", ctx.NewOpID())
	defer cleanupIMM(ctx, prefix)

	_, parent := trace.FromContext(cctx)
	start := time.Now()
	if err := runIMMStage(r, prefix, parent, tenant, zero, seqOp, mergeOp); err != nil {
		return zu, err
	}
	ctx.RecordPhase(metrics.PhaseAggCompute, time.Since(start), "IMM reduced-result stage")

	start = time.Now()
	defer func() { ctx.RecordPhase(metrics.PhaseAggReduce, time.Since(start), "reduce stage") }()
	payloads, err := runOnAllExecutorsTenant(ctx, tenant, func(ec *rdd.ExecContext, task, attempt int) ([]byte, error) {
		return serde.Encode(nil, sharedAgg(ec, prefix+"agg", zero))
	})
	if err != nil {
		return zu, err
	}
	return rdd.MergeDecoded(len(payloads), func(i int) ([]byte, error) { return payloads[i], nil }, zero, mergeOp)
}

// SplitAggregate is the split aggregation interface of Figure 6.
//
// zero, seqOp: as in treeAggregate, building per-partition aggregators.
// mergeOp:     merges aggregators within one executor (IMM).
// splitOp:     returns segment i of n from an aggregator; all ranks
//
//	must agree on the segmentation.
//
// reduceOp:    merges two aggregator-segments.
// concatOp:    reassembles the ordered reduced segments into the final
//
//	result.
//
// The reduction runs as ring reduce-scatter over the PDR with
// opts.Parallelism channels, then the driver collects each executor's
// owned segments (the "gather via collect" of §4.2) and applies
// concatOp.
//
// Deprecated: use Aggregate, whose default strategy is StrategySplit.
func SplitAggregate[T, U, V any](
	r *rdd.RDD[T],
	zero func() U,
	seqOp func(U, T) U,
	mergeOp func(U, U) U,
	splitOp func(u U, i, n int) V,
	reduceOp func(V, V) V,
	concatOp func([]V) V,
	opts Options,
) (V, error) {
	return Aggregate(context.Background(), r, AggFuncs[T, U, V]{
		Zero:     zero,
		SeqOp:    seqOp,
		MergeOp:  mergeOp,
		SplitOp:  splitOp,
		ReduceOp: reduceOp,
		ConcatOp: concatOp,
	}, WithParallelism(opts.Parallelism))
}

// serdeOps builds the collective callbacks for a serde-encodable
// segment type. EncodeTo reuses the pooled wire buffer's capacity, so
// the ring loops avoid per-step encode allocations; Decode must stay
// the generic framed path (the concrete codec may retain slices), so no
// fused decode-reduce is offered here — F64-shaped aggregators that
// want the fully fused path use collective.F64Ops directly.
func serdeOps[V any](reduceOp func(V, V) V) collective.Ops[V] {
	return collective.Ops[V]{
		Reduce:   reduceOp,
		Encode:   func(dst []byte, v V) []byte { return serde.MustEncode(dst, v) },
		EncodeTo: func(dst []byte, v V) []byte { return serde.MustEncode(dst[:0], v) },
		Decode:   rdd.DecodeAs[V],
	}
}

// splitParallel applies splitOp across the executor's cores — the
// reason §3.1 defines splitOp to return one segment per call: "multiple
// threads can split a single aggregator in parallel".
func splitParallel[U, V any](agg U, nSegs, workers int, splitOp func(U, int, int) V) []V {
	segs := make([]V, nSegs)
	if workers < 2 || nSegs < 2 {
		for i := range segs {
			segs[i] = splitOp(agg, i, nSegs)
		}
		return segs
	}
	if workers > nSegs {
		workers = nSegs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nSegs; i += workers {
				segs[i] = splitOp(agg, i, nSegs)
			}
		}(w)
	}
	wg.Wait()
	return segs
}

// The owned-segments frame is how a ring rank returns its reduced
// segments to the driver:
//
//	[0:4)  count
//	count × { u32 index, u32 length, length bytes of segment }
//
// sorted by index for determinism. For ops with the chunk fast path
// (collective.ChunkStride > 0) a segment's bytes are its raw chunk
// payload, so the driver can decode every segment straight into its
// place in one result; otherwise they are ops.Encode's whole-segment
// wire form.

// encodeOwned frames a rank's owned segments. The frame is sized once
// and every segment encoded in place.
func encodeOwned[V any](owned map[int]V, ops collective.Ops[V]) []byte {
	idxs := make([]int, 0, len(owned))
	for i := range owned {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	stride := collective.ChunkStride(ops)
	size := 4
	for _, i := range idxs {
		size += 8
		switch {
		case stride > 0:
			size += stride * ops.Elems(owned[i])
		case ops.EncodedSize != nil:
			size += ops.EncodedSize(owned[i])
		}
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(idxs)))
	for _, i := range idxs {
		h := len(b)
		b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
		if v := owned[i]; stride > 0 {
			b = ops.EncodeChunkTo(b, v, 0, ops.Elems(v))
		} else {
			b = ops.Encode(b, v)
		}
		binary.LittleEndian.PutUint32(b[h:], uint32(i))
		binary.LittleEndian.PutUint32(b[h+4:], uint32(len(b)-h-8))
	}
	return b
}

// parseOwned validates one owned-segments frame and records each
// segment's bytes (aliasing p) in wires[index], marking seen. A
// truncated frame, trailing bytes, an index outside [0, len(wires)) or
// an index already seen — in this frame or an earlier one — is an
// error.
func parseOwned(p []byte, wires [][]byte, seen []bool) error {
	if len(p) < 4 {
		return fmt.Errorf("core: short owned-segments frame")
	}
	n := int(binary.LittleEndian.Uint32(p))
	off := 4
	for k := 0; k < n; k++ {
		if len(p)-off < 8 {
			return fmt.Errorf("core: truncated owned-segments frame (%d of %d segments)", k, n)
		}
		idx := int(binary.LittleEndian.Uint32(p[off:]))
		segLen := int(binary.LittleEndian.Uint32(p[off+4:]))
		off += 8
		if segLen > len(p)-off {
			return fmt.Errorf("core: truncated segment %d (%d of %d bytes)", idx, len(p)-off, segLen)
		}
		if idx >= len(wires) {
			return fmt.Errorf("core: segment index %d out of range [0,%d)", idx, len(wires))
		}
		if seen[idx] {
			return fmt.Errorf("core: duplicate segment %d", idx)
		}
		wires[idx], seen[idx] = p[off:off+segLen], true
		off += segLen
	}
	if off != len(p) {
		return fmt.Errorf("core: %d trailing bytes after %d segments", len(p)-off, n)
	}
	return nil
}

// gatherOwned assembles the driver's result from every rank's
// owned-segments frame. With the chunk fast path each segment is
// decoded straight into its place in one ops.MakeSegment result — no
// per-segment allocation and no concatenating copy on the driver's
// serial path; such ops' ConcatOp must therefore be plain element
// concatenation (see AggFuncs.Ops). Otherwise the segments are decoded
// one by one and handed to concat in index order.
func gatherOwned[V any](payloads [][]byte, nSegs int, ops collective.Ops[V], concat func([]V) V) (V, error) {
	var zv V
	wires := make([][]byte, nSegs)
	seen := make([]bool, nSegs)
	for _, p := range payloads {
		if err := parseOwned(p, wires, seen); err != nil {
			return zv, err
		}
	}
	for i, ok := range seen {
		if !ok {
			return zv, fmt.Errorf("core: segment %d missing after reduce-scatter", i)
		}
	}
	stride := collective.ChunkStride(ops)
	if stride == 0 {
		segs := make([]V, nSegs)
		for i, w := range wires {
			v, err := ops.Decode(w)
			if err != nil {
				return zv, err
			}
			segs[i] = v
		}
		return concat(segs), nil
	}
	total := 0
	for i, w := range wires {
		if len(w)%stride != 0 {
			return zv, fmt.Errorf("core: segment %d has %d bytes, not a multiple of the %d-byte element", i, len(w), stride)
		}
		total += len(w) / stride
	}
	out := ops.MakeSegment(total)
	off := 0
	for _, w := range wires {
		if err := ops.DecodeChunkInto(out, off, w); err != nil {
			return zv, err
		}
		off += len(w) / stride
	}
	return out, nil
}
