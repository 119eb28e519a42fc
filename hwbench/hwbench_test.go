package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"histwalk"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{
		{1, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {50000, 0.99},
	} {
		if got := tailQuantile(c.n); got != c.q {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.q)
		}
		if q := tailQuantile(c.n); q != 0.5 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than 10 samples beyond it", c.n, q)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // unsorted on purpose
	}
	if got := quantile(xs, 0.75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30 (ten samples beyond it)", got)
	}
	if got := median(xs); got != 20.5 {
		t.Errorf("median of 1..40 = %v, want 20.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if xs[0] != 40 {
		t.Error("quantile reordered its input")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	same := func(kind string, defs []metricDef, want []struct{ Name, Unit string }) {
		var got, exp []string
		for _, d := range defs {
			got = append(got, d.name+" "+d.unit)
		}
		for _, w := range want {
			exp = append(exp, w.Name+" "+w.Unit)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n harness %v\n    json %v", kind, got, exp)
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(names), len(workloads))
	}
}

func TestReportRequiresEveryMetric(t *testing.T) {
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.name] = 1
	}
	values["extra"] = 2
	got, err := report(values, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) {
		t.Errorf("report emitted %d metrics, want %d", len(got), len(endToEnd))
	}
	delete(values, endToEnd[0].name)
	if _, err := report(values, endToEnd); err == nil {
		t.Error("report accepted a missing metric")
	}
}

// TestCommandEmitsBenchmarkMetrics runs the harness end to end against a
// freshly built daemon for one short pass in each trace mode and checks
// that the result line carries exactly the metric names BENCHMARK.json
// declares.
func TestCommandEmitsBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs histwalkd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "histwalkd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/histwalkd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building histwalkd: %v\n%s", err, out)
	}
	bj := readBenchmarkJSON(t)
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": bj.EndToEnd, "1": bj.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "walk-heavy", "--seed", "7", "--seconds", "1", "--trace", trace, "-daemon", bin, "-work", dir}
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out.String())
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, w := range want {
			exp = append(exp, w.Name+" "+w.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("trace %s: emitted %v, BENCHMARK.json declares %v", trace, got, exp)
		}
	}
}

// fakeResult builds a Result whose ledger balances for spec.
func fakeResult(spec histwalk.SpecJSON, points [3]float64) *histwalk.Result {
	res := &histwalk.Result{}
	for c := 0; c < spec.Chains; c++ {
		res.Chains = append(res.Chains, histwalk.ChainResult{Chain: c, Steps: 30, Queries: spec.Budget - 1, Samples: 30})
		res.TotalSteps += 30
		res.TotalQueries += spec.Budget - 1
	}
	res.GlobalQueries = res.TotalQueries - 5
	res.CrossChainHits = 5
	for k, e := range estimators {
		res.Estimates = append(res.Estimates, histwalk.Estimate{Name: e.Name, Point: points[k], Samples: 120})
	}
	return res
}

func TestCheckLedger(t *testing.T) {
	spec := histwalk.SpecJSON{Walker: "cnrw", Budget: 50, Chains: 4}
	if err := checkLedger(spec, fakeResult(spec, [3]float64{1, 2, 0.5})); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*histwalk.Result){
		"over budget":     func(r *histwalk.Result) { r.Chains[1].Queries = 51; r.TotalQueries += 2 },
		"sum mismatch":    func(r *histwalk.Result) { r.TotalQueries++ },
		"steps mismatch":  func(r *histwalk.Result) { r.TotalSteps-- },
		"global identity": func(r *histwalk.Result) { r.CrossChainHits++ },
		"no samples":      func(r *histwalk.Result) { r.Chains[2].Samples = 0 },
		"dropped chain":   func(r *histwalk.Result) { r.Chains = r.Chains[:3] },
		"empty estimate":  func(r *histwalk.Result) { r.Estimates[0].Samples = 0 },
	} {
		r := fakeResult(spec, [3]float64{1, 2, 0.5})
		breakIt(r)
		if err := checkLedger(spec, r); err == nil {
			t.Errorf("%s: broken ledger accepted", name)
		}
	}
	// A pipelined job's global counters include speculation, so the
	// identity is not required there.
	piped := spec
	piped.Transport = &histwalk.TransportJSON{Kind: "sim"}
	r := fakeResult(piped, [3]float64{1, 2, 0.5})
	r.GlobalQueries = 3 * r.TotalQueries
	if err := checkLedger(piped, r); err != nil {
		t.Errorf("pipelined ledger rejected: %v", err)
	}
}

func TestCheckTruth(t *testing.T) {
	w, _ := workloadByName("walk-heavy")
	tr := truth{80, 45, 0.5}
	var runs []*jobRun
	for i := 0; i < 8; i++ {
		spec := w.job("g.hwg", 1, i)
		runs = append(runs, &jobRun{idx: i, spec: spec, res: fakeResult(spec, [3]float64{80 * (1 + 0.01*float64(i%2)), 45, 0.5})})
	}
	if err := checkTruth(w, tr, runs); err != nil {
		t.Fatalf("estimates at the truth rejected: %v", err)
	}
	// Perturb one walker's age estimates by 10%.
	for _, r := range runs {
		if r.spec.Walker == "srw" {
			r.res.Estimates[1].Point *= 1.1
		}
	}
	if err := checkTruth(w, tr, runs); err == nil {
		t.Error("perturbed estimate accepted")
	}
	// A walker with no finished job fails too.
	if err := checkTruth(w, tr, runs[:3]); err == nil {
		t.Error("missing walker accepted")
	}
}

func TestCheckLibrary(t *testing.T) {
	spec := histwalk.SpecJSON{Dataset: "clustered", Walker: "cnrw", Estimators: estimators[:1], Budget: 40, Chains: 2, Seed: 5}
	s, err := spec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := histwalk.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	served, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	r := &jobRun{id: "j1", spec: spec, result: served, res: res}
	if err := checkLibrary(context.Background(), r); err != nil {
		t.Fatalf("identical Result rejected: %v", err)
	}
	r.result = bytes.Replace(served, []byte(`"total_steps":`), []byte(`"total_steps":1`), 1)
	if err := checkLibrary(context.Background(), r); err == nil {
		t.Error("altered Result accepted")
	}
}

func TestCheckDurable(t *testing.T) {
	served := map[string]string{
		"j00001-a": `{"id":"j00001-a","state":"done","result":{"x": 1}}`,
		"j00002-b": `{"id":"j00002-b","state":"done","result":{"x": 2}}`,
		"j00003-c": `{"id":"j00003-c","state":"done","result":{"x": 3}}`,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := served[strings.TrimPrefix(r.URL.Path, "/v1/jobs/")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()
	runs := func() []*jobRun {
		return []*jobRun{
			{id: "j00001-a", result: []byte(`{"x":1}`)},
			{id: "j00002-b", result: []byte(`{"x":2}`)},
			{id: "j00003-c", result: []byte(`{"x":3}`)},
			{state: "rejected"}, // never acknowledged: not checked
		}
	}
	if d := checkDurable(context.Background(), c, runs(), 10); d.lost != 0 || d.checked != 3 || d.firstErr != nil {
		t.Fatalf("intact store: %+v", d)
	}

	delete(served, "j00002-b")
	if d := checkDurable(context.Background(), c, runs(), 10); d.lost != 1 || d.firstErr == nil {
		t.Errorf("dropped job: %+v, want one lost", d)
	}
	// With a store limit of 1 only the newest job must survive; the
	// dropped older one counts as evicted.
	if d := checkDurable(context.Background(), c, runs(), 1); d.lost != 0 || d.evicted != 1 {
		t.Errorf("dropped job beyond the store limit: %+v, want one evicted", d)
	}

	served["j00002-b"] = `{"id":"j00002-b","state":"done","result":{"x": 20}}`
	if d := checkDurable(context.Background(), c, runs(), 10); d.lost != 1 {
		t.Errorf("changed Result: %+v, want one lost", d)
	}
	served["j00002-b"] = `{"id":"j00002-b","state":"failed"}`
	if d := checkDurable(context.Background(), c, runs(), 10); d.lost != 1 {
		t.Errorf("job no longer done: %+v, want one lost", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // overruns its parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	lt := selfTimes(spans)
	for name, want := range map[string][2]int64{"job": {100, 50}, "a": {50, 40}, "b": {30, 30}, "c": {10, 10}} {
		if got := lt[name]; int64(got.total) != want[0] || int64(got.self) != want[1] {
			t.Errorf("%s: total %d self %d, want %d %d", name, got.total, got.self, want[0], want[1])
		}
	}
	if lt["a"].count != 2 {
		t.Errorf("a counted %d times, want 2", lt["a"].count)
	}
}

func TestParseMemTrailer(t *testing.T) {
	before, err := parseMemTrailer("heap profile...\n# TotalAlloc = 1000\n# NumGC = 2\n# PauseNs = [5 7 0 0]\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMemTrailer("# TotalAlloc = 5000\n# NumGC = 5\n# PauseNs = [5 7 11 13 17]\n")
	if err != nil {
		t.Fatal(err)
	}
	if before.totalAlloc != 1000 || after.totalAlloc != 5000 {
		t.Errorf("TotalAlloc %d, %d", before.totalAlloc, after.totalAlloc)
	}
	if n, pause := gcPauses(before, after); n != 3 || pause != 11+13+17 {
		t.Errorf("gcPauses = %d, %v; want 3, 41ns", n, pause)
	}
	if _, err := parseMemTrailer("no trailer"); err == nil {
		t.Error("missing trailer accepted")
	}
}

func TestParseExposition(t *testing.T) {
	m := parseExposition("# HELP x y\n# TYPE x counter\nx_total 3\nh_bucket{le=\"+Inf\"} 4\nh_sum 0.25\nh_count 4\n")
	if m["x_total"] != 3 || m[`h_bucket{le="+Inf"}`] != 4 || m["h_sum"] != 0.25 || m["h_count"] != 4 {
		t.Errorf("parsed %v", m)
	}
}
