package main

import (
	"fmt"
	"time"

	"sparker/internal/mllib"
	"sparker/internal/rdd"
	"sparker/internal/transport"
)

// geometry is a cluster shape: executors × cores, and how many
// partitions the training data is cut into.
type geometry struct {
	executors, cores, parts int
}

// benchGeometry is the measured cluster: four executors of one core,
// the smallest ring in which reduce-scatter takes more than one step.
var benchGeometry = geometry{executors: 4, cores: 1, parts: 4}

// warmupIters is the length of the warm-up job that packs the CSR
// partitions and fills the engine's pools before anything is timed.
const warmupIters = 3

// cluster is one booted engine with the workload's data cached on it.
type cluster struct {
	net   transport.Network
	ctx   *rdd.Context
	train *rdd.RDD[mllib.LabeledPoint]
	geom  geometry
}

// setupTimes are the phases of bringing a cluster up.
type setupTimes struct {
	boot, cache, warmup time.Duration
}

// boot starts a cluster over net, caches points on it and runs the
// warm-up job. The cluster owns net from here on.
func boot(name string, w workload, g geometry, net transport.Network, points []mllib.LabeledPoint, sp *spanLog, parent int) (*cluster, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ctx, err := rdd.NewContext(rdd.Config{
		Name:             name,
		NumExecutors:     g.executors,
		CoresPerExecutor: g.cores,
		Network:          net,
		RingParallelism:  w.parallelism,
	})
	t1 := time.Now()
	sp.add("rdd.boot", parent, t0, t1)
	st.boot = t1.Sub(t0)
	if err != nil {
		net.Close()
		return nil, st, fmt.Errorf("booting %s: %w", name, err)
	}
	c := &cluster{net: net, ctx: ctx, geom: g}

	c.train = rdd.FromSlice(ctx, points, g.parts).Cache()
	n, err := rdd.Count(c.train)
	t2 := time.Now()
	sp.add("rdd.cache", parent, t1, t2)
	st.cache = t2.Sub(t1)
	if err == nil && n != int64(len(points)) {
		err = fmt.Errorf("cached %d rows, want %d", n, len(points))
	}
	if err != nil {
		c.close()
		return nil, st, fmt.Errorf("caching on %s: %w", name, err)
	}

	_, err = c.trainJob(w, w.strategy, warmupIters, nil)
	t3 := time.Now()
	sp.add("rdd.warmup", parent, t2, t3)
	st.warmup = t3.Sub(t2)
	if err != nil {
		c.close()
		return nil, st, fmt.Errorf("warm-up on %s: %w", name, err)
	}
	return c, st, nil
}

func (c *cluster) close() {
	c.ctx.Close()
	c.net.Close()
}

// trainJob runs one gradient-descent training job from zero weights.
// up, when non-nil, wraps the stock updater (the gradient is always the
// stock value: the engine picks its fused kernel by the gradient's
// concrete type).
func (c *cluster) trainJob(w workload, s mllib.Strategy, iters int, up mllib.Updater) ([]float64, error) {
	grad, stock := w.model()
	if up == nil {
		up = stock
	}
	_, losses, err := mllib.RunGradientDescent(c.train, grad, up, make([]float64, w.features), mllib.GDConfig{
		Iterations:  iters,
		StepSize:    w.stepSize,
		RegParam:    w.regParam,
		Strategy:    s,
		Parallelism: w.parallelism,
	})
	if err == nil && len(losses) != iters {
		err = fmt.Errorf("%d losses for %d iterations", len(losses), iters)
	}
	return losses, err
}

// timedUpdater wraps the stock updater and timestamps every call: one
// call ends each iteration, so the gap between consecutive calls is
// that iteration's wall time as the driver sees it.
type timedUpdater struct {
	inner mllib.Updater
	// last is the end of the previous call (or the job's start).
	last  time.Time
	walls []time.Duration
	self  time.Duration
	// captures keeps copies of the first keep calls' inputs for the
	// output check.
	captures []step
	keep     int
	sp       *spanLog
	job      int
}

// step is one iteration as the engine handed it to the updater.
type step struct {
	weights, gradient []float64
	regVal            float64
}

func (u *timedUpdater) Update(w, g []float64, stepSize float64, iter int, regParam float64) ([]float64, float64) {
	t0 := time.Now()
	out, reg := u.inner.Update(w, g, stepSize, iter, regParam)
	t1 := time.Now()
	if len(u.captures) < u.keep {
		u.captures = append(u.captures, step{
			weights:  append([]float64(nil), w...),
			gradient: append([]float64(nil), g...),
			regVal:   reg,
		})
	}
	it := u.sp.add("iteration", u.job, u.last, t1)
	u.sp.add("mllib.update", it, t0, t1)
	u.self += t1.Sub(t0)
	u.walls = append(u.walls, t1.Sub(u.last))
	u.last = t1
	return out, reg
}
