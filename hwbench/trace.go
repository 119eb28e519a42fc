package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"histwalk"
)

// span is one traced call into a layer: its name, interval, parent span
// (0 for a root) and the job it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A tracer that is off records nothing,
// which is how the untraced replay measures tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(name, job string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime sums, per span name, the spans' total and self time and
// counts them. A span's self time is its duration minus the part of its
// interval that its children cover.
type layerTime struct {
	total, self time.Duration
	count       int
}

func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = new(layerTime)
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered(s, children[s.ID]))
		lt.count++
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// progressTicks and checkpointEvery mirror the daemon's defaults
// (service Options.ProgressTicks and Options.CheckpointEvery): a chain
// emits a progress event, with a running-estimate merge, each time its
// spend crosses a multiple of Budget/64, and every fourth emission
// writes a checkpoint.
const (
	progressTicks   = 64
	checkpointEvery = 4
)

// replayJob drives one job through the library the way the daemon's
// job runner does, recording a span around each call into a layer.
func replayJob(ctx context.Context, t *tracer, job string, wire histwalk.SpecJSON) error {
	root := t.begin("job", job, 0)
	defer t.end(root)

	s := t.begin("session.resolve", job, root)
	spec, err := wire.Spec()
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin("session.new", job, root)
	sess, err := histwalk.NewSession(spec)
	t.end(s)
	if err != nil {
		return err
	}
	defer sess.Close()

	chains := max(wire.Chains, 1)
	stride := max(wire.Budget/progressTicks, 1)
	next := make([]int, chains)
	for i := range next {
		next[i] = stride
	}
	emitted := 0
	step := t.begin("session.step", job, root)
	for {
		u, ok, err := sess.NextContext(ctx)
		if err != nil {
			t.end(step)
			return err
		}
		if !ok {
			break
		}
		if u.Spent < next[u.Chain] {
			continue
		}
		for next[u.Chain] <= u.Spent {
			next[u.Chain] += stride
		}
		t.end(step)
		m := t.begin("session.merge", job, root)
		_, _ = sess.Result() // running estimate; errors until every chain sampled, as in the daemon
		t.end(m)
		if emitted++; emitted%checkpointEvery == 0 {
			c := t.begin("session.checkpoint", job, root)
			_ = sess.Checkpoint()
			t.end(c)
		}
		step = t.begin("session.step", job, root)
	}
	t.end(step)
	m := t.begin("session.merge", job, root)
	_, _ = sess.Result()
	t.end(m)
	f := t.begin("session.final", job, root)
	_, err = sess.Result()
	t.end(f)
	return err
}

// replayAll replays jobs in order and returns the wall time it took.
func replayAll(ctx context.Context, t *tracer, jobs []histwalk.SpecJSON) (time.Duration, error) {
	t0 := time.Now()
	for i, wire := range jobs {
		if err := replayJob(ctx, t, "r"+strconv.Itoa(i), wire); err != nil {
			return 0, fmt.Errorf("replaying job %d: %w", i, err)
		}
	}
	return time.Since(t0), nil
}

// stepStride is how many walker steps or neighbor lookups one timed
// stride covers; single steps are far too short to time.
const stepStride = 4096

// probeSteps times Walker.Step over a fresh NewSimulatorStore for each
// walker, per stride of steps, and returns the mean over the walkers of
// each walker's median ns/step.
func probeSteps(t *tracer, st histwalk.GraphStore, walkers []string, strides int, seed int64) (float64, error) {
	var perWalker []float64
	root := t.begin("core.probe", "", 0)
	defer t.end(root)
	for wi, name := range walkers {
		f, err := histwalk.WalkerByName(name, histwalk.WalkerOptions{})
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(seed + int64(wi)))
		sim := histwalk.NewSimulatorStore(st)
		w := f.New(sim, histwalk.Node(rng.Intn(st.NumNodes())), rng)
		var ns []float64
		for k := 0; k < strides; k++ {
			sp := t.begin("core.step", name, root)
			t0 := time.Now()
			for i := 0; i < stepStride; i++ {
				if _, err := w.Step(); err != nil {
					return 0, fmt.Errorf("%s step: %w", name, err)
				}
			}
			d := time.Since(t0)
			t.end(sp)
			ns = append(ns, float64(d)/stepStride)
		}
		perWalker = append(perWalker, median(ns))
	}
	sum := 0.0
	for _, x := range perWalker {
		sum += x
	}
	return sum / float64(len(perWalker)), nil
}

// probeNeighbors times Simulator.NeighborsAppend on random nodes per
// stride of lookups and returns the median ns/lookup.
func probeNeighbors(t *tracer, st histwalk.GraphStore, strides int, seed int64) (float64, error) {
	root := t.begin("access.probe", "", 0)
	defer t.end(root)
	rng := rand.New(rand.NewSource(seed))
	sim := histwalk.NewSimulatorStore(st)
	n := st.NumNodes()
	nodes := make([]histwalk.Node, stepStride)
	var buf []histwalk.Node
	var ns []float64
	for k := 0; k < strides; k++ {
		for i := range nodes {
			nodes[i] = histwalk.Node(rng.Intn(n))
		}
		sp := t.begin("access.neighbors", "", root)
		t0 := time.Now()
		for _, v := range nodes {
			var err error
			if buf, err = sim.NeighborsAppend(buf[:0], v); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		t.end(sp)
		ns = append(ns, float64(d)/stepStride)
	}
	return median(ns), nil
}

// probeRowAlloc returns the heap KB allocated per Prefetcher fetch over
// NewSimTransport, fetching distinct random nodes through one view.
func probeRowAlloc(t *tracer, st histwalk.GraphStore, fetches int, seed int64) (float64, error) {
	root := t.begin("access.row_probe", "", 0)
	defer t.end(root)
	rng := rand.New(rand.NewSource(seed))
	nodes := rng.Perm(st.NumNodes())[:min(fetches, st.NumNodes())]
	p := histwalk.NewPrefetcher(histwalk.NewSimTransport(st, 0), 0)
	defer p.Close()
	v := p.View()
	var buf []histwalk.Node
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, u := range nodes {
		var err error
		if buf, err = v.NeighborsAppend(buf[:0], histwalk.Node(u)); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	if got := p.Stats().NetworkFetches; got != len(nodes) {
		return 0, fmt.Errorf("row probe: %d fetches for %d distinct nodes", got, len(nodes))
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(nodes)) / 1024, nil
}
