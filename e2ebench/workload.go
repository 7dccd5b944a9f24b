package main

import (
	"fmt"

	"sparker/internal/data"
	"sparker/internal/mllib"
)

// workload is one fixed training task. The data shape and strategy are
// chosen so the three workloads load different layers of the engine;
// README.md records why each exists.
type workload struct {
	name     string
	kind     string // "lr" or "svm"
	strategy mllib.Strategy
	// rows, features and nnz shape the synthetic dataset.
	rows, features, nnz int
	// parallelism is the ring channel count of the split strategy.
	parallelism int
	// iters is the fixed iteration count of one training job; final_loss
	// is the loss after it.
	iters    int
	stepSize float64
	regParam float64
}

// numWorkloadIters is the length of every timed training job.
const numWorkloadIters = 20

func workloads() []workload {
	avazu := mustProfile("avazu").Scaled(100)
	kdd10 := mustProfile("kdd10")
	svm := func(name string, s mllib.Strategy) workload {
		return workload{
			name: name, kind: "svm", strategy: s,
			rows: 20_000, features: kdd10.Features / 20, nnz: 30,
			parallelism: 4, iters: numWorkloadIters, stepSize: 1, regParam: 0.01,
		}
	}
	return []workload{
		{
			name: "lr-avazu-split", kind: "lr", strategy: mllib.StrategySplit,
			rows: avazu.Samples, features: avazu.Features, nnz: avazu.NNZPerSample,
			parallelism: 4, iters: numWorkloadIters, stepSize: 1,
		},
		svm("svm-kdd10-split", mllib.StrategySplit),
		svm("svm-kdd10-tree", mllib.StrategyTree),
	}
}

func mustProfile(name string) data.Profile {
	p, err := data.ProfileByName(name)
	if err != nil {
		panic(err) // the profile table is compiled in
	}
	return p
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// gen synthesizes the workload's dataset; the same seed gives the same
// points.
func (w workload) gen(seed int64) []mllib.LabeledPoint {
	return data.GenClassification(data.ClassificationSpec{
		Samples: w.rows, Features: w.features, NNZPerSample: w.nnz, Seed: seed,
	})
}

// model returns the stock gradient and updater of the workload's model,
// as mllib.TrainLogisticRegression and mllib.TrainSVM use them.
func (w workload) model() (mllib.Gradient, mllib.Updater) {
	if w.kind == "svm" {
		return mllib.HingeGradient{}, mllib.SquaredL2Updater{}
	}
	return mllib.LogisticGradient{}, mllib.SimpleUpdater{}
}

// other returns the strategy the output check cross-trains with: the
// two kdd10 workloads must agree on final loss across split and tree.
func (w workload) other() (mllib.Strategy, bool) {
	if w.kind != "svm" {
		return 0, false
	}
	if w.strategy == mllib.StrategyTree {
		return mllib.StrategySplit, true
	}
	return mllib.StrategyTree, true
}
