package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"histwalk"
)

// truth holds the exact values the jobs' estimators target.
type truth [3]float64 // avg degree, mean age, share of age >= ageThreshold

// truthOf computes the estimators' true values directly from a graph
// store: Σ degree / N, the mean of age, and the share of nodes whose age
// is at least ageThreshold.
func truthOf(st histwalk.GraphStore) (truth, error) {
	n := st.NumNodes()
	if n == 0 {
		return truth{}, errors.New("empty graph")
	}
	age, ok := st.Attr("age")
	if !ok || len(age) != n {
		return truth{}, errors.New("graph has no age attribute")
	}
	var deg, sumAge float64
	above := 0
	for v := 0; v < n; v++ {
		deg += float64(st.Degree(histwalk.Node(v)))
		sumAge += age[v]
		if age[v] >= ageThreshold {
			above++
		}
	}
	return truth{deg / float64(n), sumAge / float64(n), float64(above) / float64(n)}, nil
}

// checkTruth requires, for each walker, the mean of its jobs' point
// estimates to lie within the workload's relative tolerance of the
// truth.
func checkTruth(w workload, tr truth, runs []*jobRun) error {
	type sums struct {
		point [3]float64
		jobs  int
	}
	byWalker := map[string]*sums{}
	for _, r := range runs {
		if r.res == nil {
			continue
		}
		s := byWalker[r.spec.Walker]
		if s == nil {
			s = new(sums)
			byWalker[r.spec.Walker] = s
		}
		for k, e := range estimators {
			est, ok := r.res.Lookup(e.Name)
			if !ok {
				return fmt.Errorf("job %s has no estimate %q", r.id, e.Name)
			}
			s.point[k] += est.Point
		}
		s.jobs++
	}
	for _, sh := range w.shapes {
		s := byWalker[sh.walker]
		if s == nil {
			return fmt.Errorf("no finished job of walker %s", sh.walker)
		}
		for k, e := range estimators {
			mean := s.point[k] / float64(s.jobs)
			if rel := math.Abs(mean-tr[k]) / math.Abs(tr[k]); !(rel <= w.tol[k]) {
				return fmt.Errorf("%s %s: mean estimate %.4f over %d jobs is %.1f%% from the truth %.4f (tolerance %.0f%%)",
					sh.walker, e.Name, mean, s.jobs, 100*rel, tr[k], 100*w.tol[k])
			}
		}
	}
	return nil
}

// checkLedger verifies one Result's query accounting against its spec.
func checkLedger(spec histwalk.SpecJSON, res *histwalk.Result) error {
	if len(res.Chains) != spec.Chains {
		return fmt.Errorf("%d chains, spec has %d", len(res.Chains), spec.Chains)
	}
	queries, steps := 0, 0
	for _, c := range res.Chains {
		if c.Queries > spec.Budget {
			return fmt.Errorf("chain %d spent %d queries, budget %d", c.Chain, c.Queries, spec.Budget)
		}
		if c.Samples <= 0 {
			return fmt.Errorf("chain %d retained no sample", c.Chain)
		}
		queries += c.Queries
		steps += c.Steps
	}
	if queries != res.TotalQueries {
		return fmt.Errorf("chain queries sum to %d, TotalQueries is %d", queries, res.TotalQueries)
	}
	if steps != res.TotalSteps {
		return fmt.Errorf("chain steps sum to %d, TotalSteps is %d", steps, res.TotalSteps)
	}
	if spec.Transport == nil && res.GlobalQueries+res.CrossChainHits != res.TotalQueries {
		return fmt.Errorf("GlobalQueries %d + CrossChainHits %d != TotalQueries %d",
			res.GlobalQueries, res.CrossChainHits, res.TotalQueries)
	}
	if len(res.Estimates) != len(estimators) {
		return fmt.Errorf("%d estimates, spec has %d", len(res.Estimates), len(estimators))
	}
	for _, e := range res.Estimates {
		if e.Samples <= 0 || math.IsNaN(e.Point) || math.IsInf(e.Point, 0) {
			return fmt.Errorf("estimate %s: point %v over %d samples", e.Name, e.Point, e.Samples)
		}
	}
	return nil
}

// chainLocal is the part of a Result that does not depend on
// scheduling: everything but the network-side counters of a pipelined
// run.
type chainLocal struct {
	Estimates    []histwalk.Estimate    `json:"estimates"`
	Chains       []histwalk.ChainResult `json:"chains"`
	TotalSteps   int                    `json:"total_steps"`
	TotalQueries int                    `json:"total_queries"`
}

// checkLibrary requires the Result bytes the daemon served to equal
// those of histwalk.Run on the same SpecJSON. A pipelined job is
// compared on its chain-local fields against the same spec without the
// transport entry, since its network counters depend on scheduling.
func checkLibrary(ctx context.Context, r *jobRun) error {
	spec := r.spec
	pipelined := spec.Transport != nil
	if pipelined {
		spec.Transport = nil
	}
	s, err := spec.Spec()
	if err != nil {
		return err
	}
	res, err := histwalk.Run(ctx, s)
	if err != nil {
		return err
	}
	var want, got []byte
	if pipelined {
		if want, err = json.Marshal(chainLocalOf(res)); err != nil {
			return err
		}
		if got, err = json.Marshal(chainLocalOf(r.res)); err != nil {
			return err
		}
	} else {
		if want, err = json.Marshal(res); err != nil {
			return err
		}
		got = r.result
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("job %s (%s): served Result differs from histwalk.Run:\n served %.200s\n   want %.200s",
			r.id, r.spec.Walker, got, want)
	}
	return nil
}

func chainLocalOf(res *histwalk.Result) chainLocal {
	return chainLocal{Estimates: res.Estimates, Chains: res.Chains, TotalSteps: res.TotalSteps, TotalQueries: res.TotalQueries}
}

// durability is the outcome of re-reading every acknowledged job from a
// restarted daemon.
type durability struct {
	checked, lost, evicted int
	firstErr               error
}

// checkDurable fetches every acknowledged job from the restarted daemon:
// each must be present, done, and serve the Result bytes fetched before
// the kill. The daemon keeps at most storeLimit jobs, dropping the
// oldest terminal ones, so jobs older than the newest storeLimit may be
// absent; they count as evicted, not lost.
func checkDurable(ctx context.Context, c *client, runs []*jobRun, storeLimit int) durability {
	acked := make([]*jobRun, 0, len(runs))
	for _, r := range runs {
		if r.id != "" {
			acked = append(acked, r)
		}
	}
	// Job ids start with the daemon's admission sequence number, so
	// sorting by id orders the jobs as the daemon admitted them.
	sort.Slice(acked, func(i, j int) bool { return acked[i].id < acked[j].id })
	var d durability
	fail := func(err error) {
		d.lost++
		if d.firstErr == nil {
			d.firstErr = err
		}
	}
	for i, r := range acked {
		mayBeEvicted := i < len(acked)-storeLimit
		st, err := c.status(ctx, r.id)
		switch {
		case errors.Is(err, errUnknownJob) && mayBeEvicted:
			d.evicted++
			continue
		case err != nil:
			fail(fmt.Errorf("job %s after restart: %w", r.id, err))
			continue
		}
		d.checked++
		if st.State != "done" {
			fail(fmt.Errorf("job %s after restart is %s, want done", r.id, st.State))
			continue
		}
		got, err := compactJSON(st.Result)
		if err != nil || !bytes.Equal(got, r.result) {
			fail(fmt.Errorf("job %s after restart serves a different Result", r.id))
		}
	}
	return d
}
