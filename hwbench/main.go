// Command hwbench is histwalk's end-to-end benchmark. It packs the
// Google Plus stand-in into a .hwg file, boots a freshly built histwalkd
// on a loopback port and drives one workload through the public HTTP
// API from closed-loop clients (one per core), each of which submits a
// job, follows its SSE event stream to the terminal event and fetches
// the Result before submitting the next. After the timed phase it checks
// every output (estimates against the true values of the packed graph,
// per-job query ledgers, served Results against histwalk.Run, and — on
// durable-events — survival of a SIGKILL), then SIGKILLs and restarts
// the daemon to time recovery.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 the
// per-layer metrics, timed by a traced replay of the same jobs through
// the library in this process plus counters scraped from the daemon.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds the daemon and this harness from
// the checkout first:
//
//	bash hwbench/run.sh --workload walk-heavy --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"histwalk"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // histwalkd binary
	work     string // scratch directory for the run
}

func parseArgs(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("hwbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (walk-heavy, crawl-latency, durable-events)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the graph and the job list")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced replay")
	fs.StringVar(&o.daemon, "daemon", "", "histwalkd binary to benchmark")
	fs.StringVar(&o.work, "work", "", "directory for the packed graph, store and spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.daemon == "" || o.work == "":
		return o, errors.New("-daemon and -work are required (run through hwbench/run.sh)")
	case o.seconds < 1:
		return o, errors.New("-seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, errors.New("-trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// Repetitions inside one run; the metrics report medians over them. A
// bare restart (in-memory store) takes a few ms and jitters, so it is
// repeated more often than a durable one, which replays the store.
const (
	setupRounds          = 5
	restartRounds        = 21
	durableRestartRounds = 9
	openRounds           = 5
	rssInterval          = 20 * time.Millisecond
)

// bench holds one run's state and measurements.
type bench struct {
	opt      options
	w        workload
	dir      string // per-run directory under -work
	graph    string // packed .hwg path
	storeDir string // durable store directory ("" for the in-memory store)
	clients  int

	values   map[string]float64 // every metric measured, by name
	problems []string           // failed output checks
	acct     accounting
	notes    []string // human-readable lines printed before the result
}

// accounting counts what happened to every job the run attempted.
type accounting struct {
	attempted, done, failed, rejected, lost, evicted int
	httpErrors, sseErrors                            int64
}

func (a accounting) failedOps() int { return a.attempted - a.done + a.lost }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	opt, err := parseArgs(args)
	if err != nil {
		return err
	}
	w, err := workloadByName(opt.workload)
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(opt.work, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{
		opt:     opt,
		w:       w,
		dir:     dir,
		graph:   filepath.Join(dir, "gplus"+histwalk.StoreExt),
		clients: runtime.NumCPU(),
		values:  make(map[string]float64),
	}
	if w.durable {
		b.storeDir = filepath.Join(dir, "store")
	}
	if err := b.run(ctx); err != nil {
		return err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	metrics, err := report(b.values, defs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "hwbench: workload=%s seed=%d seconds=%d trace=%v clients=%d\n",
		w.name, opt.seed, opt.seconds, opt.trace, b.clients)
	a := b.acct
	fmt.Fprintf(stdout, "jobs: attempted=%d done=%d failed=%d rejected=%d lost=%d evicted=%d http_errors=%d sse_errors=%d\n",
		a.attempted, a.done, a.failed, a.rejected, a.lost, a.evicted, a.httpErrors, a.sseErrors)
	for _, n := range b.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range b.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.problems) == 0,
		Attempted: a.attempted,
		Failed:    a.failedOps(),
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report picks the defined metrics out of the measured values. Every
// defined metric must have been measured and be finite.
func report(values map[string]float64, defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) daemonArgs() []string {
	args := []string{"-store", strconv.Itoa(storeLimit)}
	if b.storeDir != "" {
		args = append(args, "-store-dir", b.storeDir)
	}
	return args
}

func (b *bench) startDaemon() (*daemon, time.Duration, error) {
	return startDaemon(b.opt.daemon, b.daemonArgs(), filepath.Join(b.dir, "histwalkd.log"))
}

// run is one benchmark pass: set-up, warm-up, restarts timed on the
// store the warm-up left (so its content does not depend on
// throughput), the timed phase on the last restarted daemon, its
// SIGKILL (and, on a durable workload, one more restart to check that
// every acknowledged job survived), the output checks, and with -trace 1
// the traced pass.
func (b *bench) run(ctx context.Context) error {
	d, err := b.setup()
	if err != nil {
		return err
	}
	st, err := b.openGraph()
	if err != nil {
		_, _ = d.stop(syscall.SIGKILL)
		return err
	}
	defer st.Close()

	c := newClient(d.base, b.clients)
	runs := c.closedLoop(ctx, b.clients, 0, b.job, func(taken int) bool { return taken >= b.w.warmup })
	c.close()
	b.countErrors(c)
	if d, err = b.recover(ctx, d); err != nil {
		return err
	}
	timed, err := b.drive(ctx, d)
	if err != nil {
		_, _ = d.stop(syscall.SIGKILL)
		return err
	}
	runs = append(runs, timed...)
	if err := b.kill(ctx, d, runs); err != nil {
		return err
	}
	if err := b.check(ctx, st, runs); err != nil {
		return err
	}
	if b.opt.trace {
		return b.tracedPass(ctx, st)
	}
	return nil
}

func (b *bench) job(i int) histwalk.SpecJSON { return b.w.job(b.graph, b.opt.seed, i) }

func (b *bench) countErrors(c *client) {
	b.acct.httpErrors += c.httpErrors.Load()
	b.acct.sseErrors += c.sseErrors.Load()
}

// setup times input preparation and boot: generating the stand-in,
// packing it, and starting the daemon until /healthz answers. It runs
// setupRounds times and keeps the last daemon running.
func (b *bench) setup() (*daemon, error) {
	var total, gen, write, boot []time.Duration
	var d *daemon
	for k := 0; k < setupRounds; k++ {
		if d != nil {
			if _, err := d.stop(syscall.SIGTERM); err != nil {
				return nil, err
			}
		}
		if b.storeDir != "" {
			if err := os.RemoveAll(b.storeDir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		g, err := histwalk.OpenDatasetStore("gplus", graphSeed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := histwalk.WriteGraphStore(b.graph, g); err != nil {
			return nil, err
		}
		t2 := time.Now()
		var bt time.Duration
		if d, bt, err = b.startDaemon(); err != nil {
			return nil, err
		}
		total = append(total, time.Since(t0))
		gen = append(gen, t1.Sub(t0))
		write = append(write, t2.Sub(t1))
		boot = append(boot, bt)
	}
	b.values["setup_s"] = durMedian(total, time.Second)
	b.values["dataset.gen_s"] = durMedian(gen, time.Second)
	b.values["graphstore.write_s"] = durMedian(write, time.Second)
	b.values["service.boot_ms"] = durMedian(boot, time.Millisecond)
	return d, nil
}

// openGraph maps the packed file in this process (timing the open) for
// the truth computation and the traced pass.
func (b *bench) openGraph() (*histwalk.MappedGraph, error) {
	var opens []time.Duration
	for {
		t0 := time.Now()
		st, err := histwalk.OpenGraphStore(b.graph)
		if err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0))
		if len(opens) == openRounds {
			b.values["graphstore.open_ms"] = durMedian(opens, time.Millisecond)
			return st, nil
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
}

// snapshot is the daemon-side state read before and after the timed
// phase.
type snapshot struct {
	cpu     time.Duration
	mem     memSnap
	metrics map[string]float64
}

func (b *bench) snap(ctx context.Context, d *daemon) (snapshot, error) {
	var s snapshot
	var err error
	if s.cpu, err = d.cpuTime(); err != nil {
		return s, err
	}
	if s.mem, err = d.memStats(ctx); err != nil {
		return s, err
	}
	s.metrics, err = d.scrape(ctx)
	return s, err
}

// drive runs the timed phase and derives the throughput, latency and
// per-job resource metrics.
func (b *bench) drive(ctx context.Context, d *daemon) ([]*jobRun, error) {
	c := newClient(d.base, b.clients)
	defer c.close()
	before, err := b.snap(ctx, d)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(b.opt.seconds) * time.Second)
	stopRSS := make(chan struct{})
	rssSamples := d.sampleRSS(stopRSS, rssInterval)
	timed := c.closedLoop(ctx, b.clients, b.w.warmup, b.job, func(int) bool { return !time.Now().Before(deadline) })
	elapsed := time.Since(t0)
	close(stopRSS)
	rss := <-rssSamples
	if len(rss) == 0 {
		return nil, errors.New("no RSS sample of the daemon during the timed phase")
	}
	b.values["peak_rss_mb"] = quantile(rss, 0.9)
	after, err := b.snap(ctx, d)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	b.countErrors(c)

	var lat, submit, fetch []time.Duration
	var sse, steps, fetches, queries, demands, warm float64
	done := 0
	for _, r := range timed {
		lat = append(lat, r.latency) // failed jobs stay in the latency sample
		if r.res == nil {
			continue
		}
		done++
		submit = append(submit, r.submit)
		fetch = append(fetch, r.fetch)
		sse += float64(r.sseBytes)
		steps += float64(r.res.TotalSteps)
		if p := r.res.Pipeline; p != nil {
			fetches += float64(p.NetworkFetches)
			queries += float64(r.res.TotalQueries)
			demands += float64(p.DemandMisses + p.DemandJoined + p.DemandWarm)
			warm += float64(p.DemandWarm)
		}
	}
	if done == 0 {
		return nil, fmt.Errorf("no job finished in the %ds timed phase", b.opt.seconds)
	}
	n := float64(done)
	q := tailQuantile(len(lat))
	b.notes = append(b.notes, fmt.Sprintf("tail: job_ms_tail is the p%g of n=%d timed jobs (%d done in %.2fs)",
		100*q, len(lat), done, elapsed.Seconds()))

	ms := func(ds []time.Duration) []float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(time.Millisecond)
		}
		return xs
	}
	v := b.values
	v["jobs_per_s"] = n / elapsed.Seconds()
	v["job_ms_p50"] = median(ms(lat))
	v["job_ms_tail"] = quantile(ms(lat), q)
	v["cpu_ms_per_job"] = float64(after.cpu-before.cpu) / float64(time.Millisecond) / n
	v["alloc_mb_per_job"] = float64(after.mem.totalAlloc-before.mem.totalAlloc) / (1 << 20) / n

	gcs, pause := gcPauses(before.mem, after.mem)
	v["obs.gc_per_job"] = float64(gcs) / n
	v["obs.gc_pause_ms_per_job"] = float64(pause) / float64(time.Millisecond) / n

	delta := func(series string) float64 { return after.metrics[series] - before.metrics[series] }
	meanOf := func(hist string, unit float64) float64 {
		return ratio(delta(hist+"_sum"), delta(hist+"_count")) * unit
	}
	v["service.submit_ms_p50"] = median(ms(submit))
	v["service.result_ms_p50"] = median(ms(fetch))
	v["service.sse_kb_per_job"] = sse / 1024 / n
	v["service.queue_wait_ms_mean"] = meanOf("histwalk_job_queue_wait_seconds", 1e3)
	v["service.run_ms_mean"] = meanOf("histwalk_job_run_seconds", 1e3)
	v["service.events_per_job"] = delta("histwalk_job_events_total") / n
	v["service.store_appends_per_job"] = delta("histwalk_store_append_seconds_count") / n
	v["service.store_append_us_mean"] = meanOf("histwalk_store_append_seconds", 1e6)
	v["service.checkpoint_writes_per_job"] = delta("histwalk_checkpoint_writes_total") / n
	v["service.checkpoint_write_us_mean"] = meanOf("histwalk_checkpoint_write_seconds", 1e6)
	v["service.compactions"] = delta("histwalk_store_compactions_total")
	v["core.steps_per_job"] = steps / n
	v["access.fetches_per_query"] = ratio(fetches, queries)
	v["access.warm_share"] = ratio(warm, demands)
	v["access.demand_miss_per_job"] = delta("histwalk_demand_miss_total") / n
	v["access.fetch_ms_mean"] = meanOf("histwalk_fetch_seconds", 1e3)
	return timed, nil
}

// recover times restarts on the store the warm-up left. The daemon is
// first stopped cleanly, which compacts a durable store into one
// snapshot, so every run replays the same layout; it is then restarted,
// SIGKILLed and restarted again `rounds` times, each restart timed from
// process start until /healthz answers. The last restarted daemon keeps
// running.
func (b *bench) recover(ctx context.Context, d *daemon) (*daemon, error) {
	if _, err := d.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	d, _, err := b.startDaemon()
	if err != nil {
		return nil, fmt.Errorf("restart after the warm-up: %w", err)
	}
	var times, replays []time.Duration
	rounds := restartRounds
	if b.storeDir != "" {
		rounds = durableRestartRounds
	}
	for k := 0; k < rounds; k++ {
		if _, err := d.stop(syscall.SIGKILL); err != nil {
			return nil, err
		}
		var boot time.Duration
		if d, boot, err = b.startDaemon(); err != nil {
			return nil, fmt.Errorf("restart %d: %w", k+1, err)
		}
		times = append(times, boot)
		m, err := d.scrape(ctx)
		if err != nil {
			_, _ = d.stop(syscall.SIGKILL)
			return nil, err
		}
		replays = append(replays, time.Duration(m["histwalk_recovery_seconds_sum"]*float64(time.Second)))
	}
	b.values["recover_s"] = durMedian(times, time.Second)
	b.values["service.recovery_ms"] = durMedian(replays, time.Millisecond)
	return d, nil
}

// kill SIGKILLs the daemon that served the timed phase and notes its
// rusage maximum RSS beside the sampled figure. On a durable workload it
// then restarts the daemon on the same store: every acknowledged job
// within the store limit must be present, done, and serve the Result
// bytes fetched before the kill.
func (b *bench) kill(ctx context.Context, d *daemon, runs []*jobRun) error {
	ps, err := d.stop(syscall.SIGKILL)
	if err != nil {
		return err
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return errors.New("no rusage for the daemon")
	}
	b.notes = append(b.notes, fmt.Sprintf("rss: p90 of samples %.1f MB, rusage maximum %.1f MB",
		b.values["peak_rss_mb"], float64(ru.Maxrss)/1024)) // Linux reports Maxrss in KB
	b.values["service.log_kb_per_job"] = 0
	if b.storeDir == "" {
		return nil
	}
	size, err := dirSize(b.storeDir)
	if err != nil {
		return err
	}
	b.values["service.log_kb_per_job"] = float64(size) / 1024 / float64(min(len(runs), storeLimit))

	d, _, err = b.startDaemon()
	if err != nil {
		return fmt.Errorf("restart after the timed phase: %w", err)
	}
	c := newClient(d.base, b.clients)
	dur := checkDurable(ctx, c, runs, storeLimit)
	c.close()
	if _, err := d.stop(syscall.SIGTERM); err != nil {
		return err
	}
	b.acct.lost, b.acct.evicted = dur.lost, dur.evicted
	if dur.firstErr != nil {
		b.problem("durability: %d of %d acknowledged jobs lost or changed; first: %v", dur.lost, dur.checked+dur.evicted, dur.firstErr)
	} else {
		b.notes = append(b.notes, fmt.Sprintf("check: durability ok (%d jobs served unchanged after SIGKILL and restart, %d evicted by the store limit)", dur.checked, dur.evicted))
	}
	return nil
}

// storeLimit is the daemon's -store: the number of jobs it keeps before
// evicting the oldest terminal ones. A long-running daemon sits at its
// limit, and there every FileStore compaction rewrites the same number
// of retained jobs. Below it (the default 1024 is more jobs than a run
// completes) each compaction rewrites more jobs than the last, so
// durable-events throughput would fall with the number of jobs a run
// manages and jump where the deadline meets a long compaction.
const storeLimit = 128

// check runs the output checks over every job of the run.
func (b *bench) check(ctx context.Context, st histwalk.GraphStore, runs []*jobRun) error {
	a := &b.acct
	a.attempted = len(runs)
	var done []*jobRun
	for _, r := range runs {
		switch r.state {
		case "done":
			a.done++
			done = append(done, r)
		case "rejected":
			a.rejected++
		default:
			a.failed++
			if a.failed == 1 {
				b.problem("job %d (%s) did not finish: %v", r.idx, r.id, r.err)
			}
		}
	}
	ledgerBad := 0
	for _, r := range done {
		if err := checkLedger(r.spec, r.res); err != nil {
			if ledgerBad++; ledgerBad == 1 {
				b.problem("ledger of job %s: %v", r.id, err)
			}
		}
	}
	if ledgerBad == 0 {
		b.notes = append(b.notes, fmt.Sprintf("check: ledger ok on %d jobs", len(done)))
	}

	tr, err := truthOf(st)
	if err != nil {
		return err
	}
	if err := checkTruth(b.w, tr, done); err != nil {
		b.problem("truth: %v", err)
	} else {
		b.notes = append(b.notes, fmt.Sprintf("check: truth ok (avg degree %.4f, mean age %.4f, share age>=%d %.4f)",
			tr[0], tr[1], ageThreshold, tr[2]))
	}

	// The fixed sample is the first round of the job list: one job of
	// every shape, all from the warm-up, so every run has them.
	sample := 0
	for _, r := range done {
		if r.idx >= len(b.w.shapes) {
			continue
		}
		sample++
		if err := checkLibrary(ctx, r); err != nil {
			b.problem("service equals library: %v", err)
		}
	}
	if sample < len(b.w.shapes) {
		b.problem("service equals library: only %d of the first %d jobs finished", sample, len(b.w.shapes))
	} else {
		b.notes = append(b.notes, fmt.Sprintf("check: served Results equal histwalk.Run on %d sampled jobs", sample))
	}
	return nil
}

// tracedPass replays the first jobs of the list through the library in
// this process, alternately with tracing off and on, and times the
// walker and access layers directly.
func (b *bench) tracedPass(ctx context.Context, st histwalk.GraphStore) error {
	jobs := make([]histwalk.SpecJSON, b.w.replay)
	for i := range jobs {
		jobs[i] = b.w.job(b.graph, b.opt.seed, i)
	}
	var plain, traced []float64
	var tr *tracer
	for k := 0; k < 3; k++ {
		d, err := replayAll(ctx, newTracer(false), jobs)
		if err != nil {
			return err
		}
		plain = append(plain, d.Seconds())
		tr = newTracer(true)
		if d, err = replayAll(ctx, tr, jobs); err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
	}
	v := b.values
	v["obs.trace_overhead_share"] = (median(traced) - median(plain)) / median(plain)

	lt := selfTimes(tr.spans)
	get := func(name string) *layerTime {
		if l := lt[name]; l != nil {
			return l
		}
		return new(layerTime)
	}
	n := float64(len(jobs))
	msPer := func(d time.Duration, per float64) float64 { return float64(d) / float64(time.Millisecond) / per }
	v["session.resolve_ms"] = msPer(get("session.resolve").self, n)
	v["session.step_ms_per_job"] = msPer(get("session.step").self, n)
	v["session.merge_ms_per_job"] = msPer(get("session.merge").self, n)
	v["session.merges_per_job"] = float64(get("session.merge").count) / n
	v["session.checkpoint_ms_per_job"] = msPer(get("session.checkpoint").self, n)
	v["session.final_ms"] = msPer(get("session.final").self, n)
	job := get("job")
	v["obs.unaccounted_share"] = float64(job.self) / float64(job.total)

	walkers := make([]string, 0, len(b.w.shapes))
	seen := map[string]bool{}
	for _, sh := range b.w.shapes {
		if !seen[sh.walker] {
			seen[sh.walker] = true
			walkers = append(walkers, sh.walker)
		}
	}
	var err error
	if v["core.step_ns"], err = probeSteps(tr, st, walkers, 32, b.opt.seed); err != nil {
		return err
	}
	if v["access.neighbors_ns"], err = probeNeighbors(tr, st, 32, b.opt.seed); err != nil {
		return err
	}
	if v["access.row_alloc_kb"], err = probeRowAlloc(tr, st, 2000, b.opt.seed); err != nil {
		return err
	}
	path := filepath.Join(b.opt.work, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.opt.seed))
	if err := tr.writeFile(path); err != nil {
		return err
	}
	b.notes = append(b.notes, fmt.Sprintf("trace: %d spans written to %s", len(tr.spans), path))
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var size int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		return nil
	})
	return size, err
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// order they are printed.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"recover_s", "s"},
}

var perLayer = []metricDef{
	{"dataset.gen_s", "s"},
	{"graphstore.write_s", "s"},
	{"graphstore.open_ms", "ms"},
	{"core.step_ns", "ns"},
	{"core.steps_per_job", "count"},
	{"access.neighbors_ns", "ns"},
	{"access.row_alloc_kb", "KB"},
	{"access.fetches_per_query", "1"},
	{"access.warm_share", "1"},
	{"access.demand_miss_per_job", "count"},
	{"access.fetch_ms_mean", "ms"},
	{"session.resolve_ms", "ms"},
	{"session.step_ms_per_job", "ms"},
	{"session.merge_ms_per_job", "ms"},
	{"session.merges_per_job", "count"},
	{"session.checkpoint_ms_per_job", "ms"},
	{"session.final_ms", "ms"},
	{"service.boot_ms", "ms"},
	{"service.submit_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.queue_wait_ms_mean", "ms"},
	{"service.run_ms_mean", "ms"},
	{"service.events_per_job", "count"},
	{"service.sse_kb_per_job", "KB"},
	{"service.store_appends_per_job", "count"},
	{"service.store_append_us_mean", "us"},
	{"service.checkpoint_writes_per_job", "count"},
	{"service.checkpoint_write_us_mean", "us"},
	{"service.compactions", "count"},
	{"service.log_kb_per_job", "KB"},
	{"service.recovery_ms", "ms"},
	{"obs.gc_per_job", "count"},
	{"obs.gc_pause_ms_per_job", "ms"},
	{"obs.trace_overhead_share", "1"},
	{"obs.unaccounted_share", "1"},
}
