package main

// The training layers are timed in serve-cold's traced run, on the training
// every serving set-up does: trainer.Train's two calls, dataset.Generate and
// svmrank.Train, with the served model's options (servedPoints points,
// servedSeed, one generation worker). Their sum is the training part of
// setup_s, the end-to-end metric that gates training cost. The served model
// is then scored on Table III.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/svmrank"
	"repro/internal/trainer"
	"repro/internal/tunespace"
)

// trainRepeats trainings are timed per traced run; the layer figures are
// their medians.
const trainRepeats = 5

// reference is one Table III instance with the simulated runtime of every
// predefined candidate: the exhaustive scan the oracle is read from.
type reference struct {
	q        stencil.Instance
	cands    []tunespace.Vector
	runtimes []float64
	oracle   float64
}

// tableIII builds the Table III reference with sim, and returns the
// simulator's time per evaluation.
func tableIII(sim *perfmodel.Model) ([]reference, float64) {
	var refs []reference
	evals := 0
	start := time.Now()
	for _, q := range stencil.Benchmarks() {
		r := reference{q: q, cands: tunespace.NewSpace(q.Kernel.Dims()).Predefined(), oracle: math.Inf(1)}
		r.runtimes = make([]float64, len(r.cands))
		for i, v := range r.cands {
			r.runtimes[i] = sim.Runtime(q, v)
			r.oracle = min(r.oracle, r.runtimes[i])
		}
		evals += len(r.cands)
		refs = append(refs, r)
	}
	return refs, float64(time.Since(start).Nanoseconds()) / float64(evals)
}

// quality returns the mean Kendall τ-b between model scores and negated
// simulated runtimes over each instance's predefined set, and the mean
// oracle runtime over the runtime of the model's top-1 pick.
func quality(w []float64, refs []reference) (tau, top1 float64) {
	enc := feature.NewEncoder()
	for _, r := range refs {
		scores := scoresOf(w, enc, r.q, r.cands)
		neg := make([]float64, len(r.runtimes))
		pick := 0
		for i, rt := range r.runtimes {
			neg[i] = -rt
			if scores[i] > scores[pick] {
				pick = i
			}
		}
		tau += kendallTauB(scores, neg)
		top1 += r.oracle / r.runtimes[pick]
	}
	n := float64(len(refs))
	return tau / n, top1 / n
}

// trainLayers repeats the set-up's training as its two calls, checks that
// each repeat reproduces the weights the server loaded from artDir bit for
// bit, and records the training and quality layer metrics.
func trainLayers(out *outcome, artDir string) error {
	served, err := readWeights(artDir)
	if err != nil {
		return err
	}
	sim := perfmodel.New(machine.XeonE52680v3())
	tc := trainer.DefaultConfig(servedPoints, servedSeed)
	tc.Dataset.Workers = 1
	var (
		gens, fits    []time.Duration
		pairs, epochs int
	)
	for i := 0; i < trainRepeats; i++ {
		t := time.Now()
		set, err := dataset.Generate(sim, tc.Dataset)
		if err != nil {
			return fmt.Errorf("generating the training set: %w", err)
		}
		gen := time.Since(t)
		t = time.Now()
		model, stats, err := svmrank.Train(set.Data, tc.SVM)
		if err != nil {
			return fmt.Errorf("fitting the model: %w", err)
		}
		gens, fits = append(gens, gen), append(fits, time.Since(t))
		pairs, epochs = stats.Pairs, stats.Epochs
		if err := checkEqualValues(model.W, served); err != nil {
			out.fail(fmt.Errorf("retraining the served model's options gave other weights: %v", err))
		}
	}

	refs, simNs := tableIII(sim)
	tau, top1 := quality(served, refs)
	if !(tau >= -1 && tau <= 1 && top1 > 0 && top1 <= 1) {
		out.fail(fmt.Errorf("quality out of range: tau %v, top-1 %v", tau, top1))
	}
	gen := median(micros(gens)) / 1e6
	fit := median(micros(fits)) / 1e6
	out.layers["dataset.generate_s"] = gen
	out.layers["dataset.points_per_s"] = servedPoints / gen
	out.layers["perfmodel.runtime_ns"] = simNs
	out.layers["svmrank.pairs"] = float64(pairs)
	out.layers["svmrank.train_s"] = fit
	out.layers["svmrank.ns_per_pair_epoch"] = fit * 1e9 / float64(pairs*epochs)
	out.layers["quality.tau_mean"] = tau
	out.layers["quality.top1_oracle_frac"] = top1
	return nil
}
