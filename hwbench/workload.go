package main

import (
	"fmt"

	"histwalk"
)

// shape is one entry of a workload's job mix: the walker plus the
// cache and stepping modes the job selects.
type shape struct {
	walker   string
	cache    string // "" = isolated
	stepping string // "" = per-chain
}

// workload is one traffic mix. Jobs cycle through shapes in order, so a
// run of any length covers every shape once per round.
type workload struct {
	name    string
	shapes  []shape
	budget  int
	chains  int
	durable bool // FileStore (-store-dir) instead of the in-memory store
	// latencyMS and window configure the simulated crawl transport; a
	// zero latency means no transport entry (plain Graph-mode jobs).
	latencyMS float64
	window    int
	// warmup jobs run before the timed phase; replay jobs are re-run
	// through the library by the traced pass.
	warmup int
	replay int
	// tol is the relative tolerance of each walker's mean estimate
	// against the truth, per estimator (avg degree, mean age, share of
	// age >= ageThreshold).
	tol [3]float64
}

// graphSeed fixes the Google Plus stand-in every run samples. The
// stand-in's size and degree vary strongly with its seed (average
// degree 82 at seed 1, 53 at seed 3), which would swamp run-to-run
// comparisons across seeds; --seed varies the job list instead.
const graphSeed = 1

// ageThreshold splits the stand-in's age attribute (uniform on 18..72)
// roughly in half, so the proportion estimator is far from 0 and 1.
const ageThreshold = 45

var workloads = []workload{
	{
		name: "walk-heavy",
		shapes: []shape{
			{walker: "cnrw"},
			{walker: "gnrw-degree", cache: "shared"},
			{walker: "srw", stepping: "batched"},
			{walker: "mhrw"},
		},
		budget: 1200, chains: 4,
		warmup: 4, replay: 8,
		tol: [3]float64{0.15, 0.02, 0.05},
	},
	{
		name: "crawl-latency",
		shapes: []shape{
			{walker: "cnrw"},
			{walker: "gnrw-degree"},
			{walker: "srw"},
			{walker: "mhrw"},
		},
		budget: 80, chains: 4,
		latencyMS: 2, window: 8,
		warmup: 4, replay: 4,
		tol: [3]float64{0.50, 0.05, 0.10},
	},
	{
		name: "durable-events",
		shapes: []shape{
			{walker: "cnrw"},
			{walker: "srw"},
			{walker: "mhrw"},
			{walker: "gnrw-degree"},
		},
		budget: 200, chains: 4,
		durable: true,
		warmup:  storeLimit, replay: 40,
		tol: [3]float64{0.30, 0.03, 0.06},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// estimators are the aggregates every job carries; their truths are
// computed from the packed graph by truthOf.
var estimators = []histwalk.EstimatorJSON{
	{Name: "avg_degree", Kind: "avg-degree"},
	{Name: "mean_age", Kind: "mean", Attr: "age"},
	{Name: "share_age_ge", Kind: "proportion", Attr: "age", Op: ">=", Value: ageThreshold},
}

// job returns the i-th job of the workload's list for the given run
// seed. The list depends only on (workload, seed, i).
func (w workload) job(graphPath string, seed int64, i int) histwalk.SpecJSON {
	sh := w.shapes[i%len(w.shapes)]
	spec := histwalk.SpecJSON{
		Dataset:    graphPath,
		Walker:     sh.walker,
		Estimators: estimators,
		Budget:     w.budget,
		Chains:     w.chains,
		Cache:      sh.cache,
		Stepping:   sh.stepping,
		Seed:       seed<<20 + int64(i),
	}
	if w.latencyMS > 0 {
		spec.Transport = &histwalk.TransportJSON{Kind: "sim", LatencyMS: w.latencyMS, Window: w.window}
	}
	return spec
}
