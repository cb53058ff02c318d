package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
)

// svcOp is one client operation against ksymd: a fresh job (submit,
// follow its event stream to the terminal event, fetch the result) or
// an idempotent replay of an earlier job of the same client (re-submit
// its body under its key, fetch the result again).
type svcOp struct {
	client int
	key    string
	k      int
	body   []byte
	n, m   int
	orig   *svcOp // the replayed op; nil for a fresh job
	seed   int64  // utility-sample seed

	jobID   string
	hash    [32]byte
	latency time.Duration
	ph      opPhases
}

// opPhases are the traced run's per-op server timings.
type opPhases struct {
	admit, queueWait, run, notify, result, replay time.Duration
}

// svcClients is the closed loop's client count, one per CPU of the
// machine the figures were calibrated on.
const svcClients = 2

// servicePlan generates perClient ops for each client. Every tenth op
// of a client replays one of its recent jobs. The fresh jobs are
// stratified: their sizes cover [50, 300] evenly, and k and the model
// take each value equally often, so every seed offers the same mix of
// work and only the graphs and their order change. Sizes are
// continuous so no latency percentile sits on a boundary between job
// classes.
func servicePlan(seed int64, tag string, perClient int) [][]*svcOp {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "service-"+tag, 0)))
	isReplay := func(i int) bool { return i%10 == 9 }
	fresh := 0
	for i := 0; i < perClient; i++ {
		if !isReplay(i) {
			fresh += svcClients
		}
	}
	specs := make([]*svcOp, fresh)
	for f := range specs {
		n := 50 + int((float64(f)+rng.Float64())*251/float64(fresh))
		var g *graph.Graph
		if f%2 == 0 {
			g = datasets.BarabasiAlbert(n, 2, 2, rng.Int63())
		} else {
			g = datasets.WattsStrogatz(n, 4, 0.05, rng.Int63())
		}
		var buf bytes.Buffer
		_ = g.Write(&buf) // a bytes.Buffer write cannot fail
		specs[f] = &svcOp{k: []int{2, 5, 10}[f/2%3], body: buf.Bytes(), n: g.N(), m: g.M(), seed: rng.Int63()}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	plan := make([][]*svcOp, svcClients)
	next := 0
	for c := range plan {
		var done []*svcOp
		for i := 0; i < perClient; i++ {
			var op *svcOp
			if isReplay(i) {
				// A recent job of the same client: still retained, and
				// finished, since each client's loop is sequential.
				orig := done[len(done)-1-rng.Intn(min(len(done), 32))]
				op = &svcOp{orig: orig, key: orig.key, k: orig.k, body: orig.body, n: orig.n, m: orig.m}
			} else {
				op = specs[next]
				next++
				op.key = fmt.Sprintf("%s-%d-%d", tag, c, i)
				done = append(done, op)
			}
			op.client = c
			plan[c] = append(plan[c], op)
		}
	}
	return plan
}

// daemon is a ksymd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
	mu      sync.Mutex
	last    []string // stderr tail, for error reports
}

// startDaemon starts ksymd on a free loopback port with its journal in
// dataDir and returns once it has printed its listening line.
func startDaemon(bin, dataDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	// The daemon must not outlive the harness, even if the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(stderr)
	const marker = "listening on http://"
	for sc.Scan() {
		line := sc.Text()
		d.note(line)
		if i := strings.Index(line, marker); i >= 0 {
			addr, _, _ := strings.Cut(line[i+len(marker):], " ")
			d.base = "http://" + addr
			break
		}
	}
	go func() {
		defer close(d.drained)
		for sc.Scan() {
			d.note(sc.Text())
		}
	}()
	if d.base == "" {
		_, _ = d.stop()
		return nil, fmt.Errorf("ksymd exited before listening: %s", d.tail())
	}
	return d, nil
}

func (d *daemon) note(line string) {
	d.mu.Lock()
	d.last = append(d.last, line)
	if len(d.last) > 8 {
		d.last = d.last[1:]
	}
	d.mu.Unlock()
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.last, " | ")
}

// stop drains ksymd with SIGTERM, killing it if the drain stalls, waits
// for it to exit and returns its peak resident set in KiB.
func (d *daemon) stop() (int64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	var rss int64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || !ee.Exited() || ee.ExitCode() != 0 {
			return rss, fmt.Errorf("ksymd: %v: %s", err, d.tail())
		}
	}
	return rss, nil
}

// metrics fetches ksymd's obs snapshot.
func (d *daemon) metrics(c *http.Client) (map[string]int64, error) {
	resp, err := c.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// jobEvent is the part of ksymd's SSE state event the client reads.
type jobEvent struct {
	State string    `json:"state"`
	At    time.Time `json:"at"`
}

type submitResp struct {
	ID string `json:"id"`
}

// do runs one op. A fresh job must be accepted (202) and end done; a
// replay must be answered 200 with the original job's id; both results
// are hashed for the correctness gate.
func (op *svcOp) do(c *http.Client, base string) error {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/anonymize?k="+strconv.Itoa(op.k), bytes.NewReader(op.body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("client-%d", op.client))
	req.Header.Set("Idempotency-Key", op.key)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	var sr submitResp
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	want := http.StatusAccepted
	if op.orig != nil {
		want = http.StatusOK
	}
	if resp.StatusCode != want {
		return fmt.Errorf("submit %s: status %d, want %d", op.key, resp.StatusCode, want)
	}
	if derr != nil {
		return fmt.Errorf("submit %s: %w", op.key, derr)
	}
	op.jobID = sr.ID
	admitted := time.Since(start)
	if op.orig != nil {
		op.ph.replay = admitted
		if op.jobID != op.orig.jobID {
			return fmt.Errorf("replay of %s returned job %s, want %s", op.key, op.jobID, op.orig.jobID)
		}
	} else {
		op.ph.admit = admitted
		if err := op.follow(c, base); err != nil {
			return err
		}
	}

	t0 := time.Now()
	resp, err = c.Get(base + "/v1/jobs/" + op.jobID + "/result")
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("result %s: %w", op.jobID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result %s: status %d", op.jobID, resp.StatusCode)
	}
	now := time.Now()
	op.ph.result = now.Sub(t0)
	op.latency = now.Sub(start)
	op.hash = [32]byte(h.Sum(nil))
	if op.orig != nil && op.hash != op.orig.hash {
		return fmt.Errorf("replay of %s: result differs from the original", op.key)
	}
	return nil
}

// follow reads the job's event stream up to its terminal event and
// records the server-side phase times it carries.
func (op *svcOp) follow(c *http.Client, base string) error {
	resp, err := c.Get(base + "/v1/jobs/" + op.jobID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: status %d", op.jobID, resp.StatusCode)
	}
	var queued, running time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events %s: %w", op.jobID, err)
		}
		switch ev.State {
		case "queued":
			queued = ev.At
		case "running":
			running = ev.At
		case "done":
			op.ph.queueWait = running.Sub(queued)
			op.ph.run = ev.At.Sub(running)
			op.ph.notify = time.Since(ev.At)
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return nil
		case "failed", "canceled", "quarantined":
			return fmt.Errorf("job %s ended %s", op.jobID, ev.State)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", op.jobID, err)
	}
	return fmt.Errorf("events %s: stream ended before a terminal event", op.jobID)
}

// loopResult is one closed-loop run of a plan.
type loopResult struct {
	wall   time.Duration
	failed []error
}

// runLoop drives the plan in a closed loop: each client sends its next
// op only after the previous one has returned its result.
func runLoop(base string, plan [][]*svcOp) loopResult {
	var wg sync.WaitGroup
	errs := make([][]error, len(plan))
	start := time.Now()
	for c, ops := range plan {
		wg.Add(1)
		go func(c int, ops []*svcOp) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for _, op := range ops {
				if op.orig != nil && op.orig.jobID == "" {
					errs[c] = append(errs[c], fmt.Errorf("replay of failed op %s skipped", op.key))
					continue
				}
				if err := op.do(hc, base); err != nil {
					errs[c] = append(errs[c], err)
				}
			}
		}(c, ops)
	}
	wg.Wait()
	r := loopResult{wall: time.Since(start)}
	for _, e := range errs {
		r.failed = append(r.failed, e...)
	}
	return r
}

// serviceSetup starts a daemon on an empty data directory and warms it
// with a short loop of its own.
func serviceSetup(ksymdBin, dataDir string, seed int64) (*daemon, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(ksymdBin, dataDir)
	if err != nil {
		return nil, err
	}
	if r := runLoop(d.base, servicePlan(seed, "warm", 4)); len(r.failed) > 0 {
		_, _ = d.stop()
		return nil, fmt.Errorf("warm-up: %v", r.failed[0])
	}
	return d, nil
}

// verifyService recomputes every fresh job in-process and checks the
// daemon's result against it: identical bytes, a release that parses
// and records |V|, and a k-symmetric partition.
func verifyService(ctx context.Context, plan [][]*svcOp, t *tracer) (cost costSums, ks []float64, failed []error) {
	var ops []*svcOp
	for _, c := range plan {
		for _, op := range c {
			if op.orig == nil && op.jobID != "" {
				ops = append(ops, op)
			}
		}
	}
	outs := make([]*kernelOut, len(ops))
	errs := make([]error, len(ops))
	eachKernel(len(ops), t, func(i int) {
		op := ops[i]
		out, err := runKernel(ctx, op.body, kernelJob{k: op.k, searchWorkers: 1, utilitySample: t != nil, sampleSeed: op.seed}, t)
		switch {
		case err != nil:
			errs[i] = fmt.Errorf("%s: in-process: %w", op.key, err)
		case out.releaseHash != op.hash:
			errs[i] = fmt.Errorf("%s: result differs from the in-process run of the same job", op.key)
		default:
			if _, _, err := checkRelease(bytes.NewReader(out.release), op.n, op.k); err != nil {
				errs[i] = fmt.Errorf("%s: %w", op.key, err)
				return
			}
			out.release = nil
			outs[i] = out
		}
	})
	for i, op := range ops {
		if errs[i] != nil {
			failed = append(failed, errs[i])
			continue
		}
		cost.add(op.n, op.m, outs[i].releaseN, outs[i].releaseM)
		ks = append(ks, outs[i].sampleKS...)
	}
	return cost, ks, failed
}
