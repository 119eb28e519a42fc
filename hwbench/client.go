package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histwalk"
)

// jobRun is what the client saw of one job.
type jobRun struct {
	idx  int
	spec histwalk.SpecJSON
	id   string // empty when the submission was refused
	// state is the job's terminal state as fetched; "rejected" for a
	// refused submission, "error" when the HTTP or SSE exchange broke.
	state string
	err   error
	// latency spans POST sent → Result fetched; submit and fetch are
	// the POST and the final GET alone.
	latency, submit, fetch time.Duration
	events                 int // SSE events received
	sseBytes               int
	result                 []byte // the served Result, compacted JSON
	res                    *histwalk.Result
}

// client runs jobs against one daemon over a bounded pool of
// connections.
type client struct {
	base string
	http *http.Client

	httpErrors atomic.Int64
	sseErrors  atomic.Int64
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// closedLoop runs `clients` loops, each submitting the next job of the
// list only after its previous job's Result arrived. Loops stop taking
// new jobs once stop reports true; jobs in flight run to their end, so
// every attempted job is accounted for.
func (c *client) closedLoop(ctx context.Context, clients int, first int, job func(int) histwalk.SpecJSON, stop func(taken int) bool) []*jobRun {
	var (
		mu   sync.Mutex
		runs []*jobRun
		next = first
		wg   sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop(next-first) || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				r := c.run(ctx, i, job(i))
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs
}

// run submits one job, follows its event stream to the terminal event
// and fetches its status with the Result.
func (c *client) run(ctx context.Context, idx int, spec histwalk.SpecJSON) *jobRun {
	r := &jobRun{idx: idx, spec: spec}
	t0 := time.Now()
	defer func() { r.latency = time.Since(t0) }()

	body, err := json.Marshal(spec)
	if err != nil {
		r.state, r.err = "error", err
		return r
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.httpErrors.Add(1)
		r.state, r.err = "error", err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = time.Since(t0)
	switch {
	case err != nil:
		c.httpErrors.Add(1)
		r.state, r.err = "error", err
		return r
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		r.state, r.err = "rejected", fmt.Errorf("submit: %s", resp.Status)
		return r
	case resp.StatusCode != http.StatusAccepted:
		c.httpErrors.Add(1)
		r.state, r.err = "error", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
		return r
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		c.httpErrors.Add(1)
		r.state, r.err = "error", fmt.Errorf("submit: bad status body: %v", err)
		return r
	}
	r.id = st.ID

	if err := c.follow(ctx, r); err != nil {
		c.sseErrors.Add(1)
		r.state, r.err = "error", err
		return r
	}
	t1 := time.Now()
	if err := c.fetchResult(ctx, r); err != nil {
		c.httpErrors.Add(1)
		r.state, r.err = "error", err
		return r
	}
	r.fetch = time.Since(t1)
	return r
}

// follow reads the job's SSE stream to its end. Event ids must run
// densely from 1, and the stream must end on a terminal event. Only
// state and result events are decoded; progress events are counted.
func (c *client) follow(ctx context.Context, r *jobRun) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+r.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	cr := &countingReader{r: resp.Body}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	terminal := false
	typ := ""
	for sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			r.events++
			if seq, err := strconv.Atoi(id); err != nil || seq != r.events {
				return fmt.Errorf("events: got id %q, want %d", id, r.events)
			}
			continue
		}
		if t, ok := strings.CutPrefix(line, "event: "); ok {
			typ = t
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || typ == "progress" {
			continue
		}
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: decoding event %d: %w", r.events, err)
		}
		switch ev.State {
		case "done", "failed", "cancelled":
			terminal = true
		}
	}
	r.sseBytes = cr.n
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if !terminal {
		return errors.New("events: stream ended before a terminal event")
	}
	return nil
}

// fetchResult GETs the job's status and keeps its state and Result.
func (c *client) fetchResult(ctx context.Context, r *jobRun) error {
	st, err := c.status(ctx, r.id)
	if err != nil {
		return err
	}
	r.state = st.State
	if st.State != "done" {
		r.err = fmt.Errorf("job %s ended %s: %s", r.id, st.State, st.Error)
		return nil
	}
	if len(st.Result) == 0 {
		return fmt.Errorf("job %s is done but has no result", r.id)
	}
	if r.result, err = compactJSON(st.Result); err != nil {
		return err
	}
	r.res = new(histwalk.Result)
	return json.Unmarshal(r.result, r.res)
}

// jobStatus is the part of a served JobStatus the benchmark reads.
type jobStatus struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// status GETs one job; a 404 comes back as errUnknownJob.
func (c *client) status(ctx context.Context, id string) (*jobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, errUnknownJob
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status: %s", resp.Status)
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	return &st, nil
}

var errUnknownJob = errors.New("unknown job")

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// compactJSON returns b without insignificant whitespace.
func compactJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
