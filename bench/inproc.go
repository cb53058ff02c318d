package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ksymmetry/internal/automorphism"
	"ksymmetry/internal/graph"
	"ksymmetry/internal/ksym"
	"ksymmetry/internal/obs"
	"ksymmetry/internal/partition"
	"ksymmetry/internal/publish"
	"ksymmetry/internal/refine"
	"ksymmetry/internal/sampling"
)

// kernelJob is one anonymization as the binaries run it: the options
// that decide which public functions are called, with which arguments.
type kernelJob struct {
	k             int
	minimal       bool
	tdv           bool  // 𝒯𝒟𝒱 partition (ksym -tdp) instead of exact Orb(G)
	searchWorkers int   // automorphism.Options.Workers the binary passes
	samples       int   // samples the binary draws from the release
	sampleSeed    int64 // sampling.Options.Seed
	// utilitySample draws one sample for the utility metric where the
	// binary draws none. It is not part of the traced computation.
	utilitySample bool
}

// kernelOut is what the in-process run of a kernelJob produced.
type kernelOut struct {
	release      []byte
	releaseHash  [32]byte
	releaseN     int // |V(G′)|
	releaseM     int // |E(G′)|
	sampleHashes [][32]byte
	sampleKS     []float64 // degree KS distance of each sample to the input
}

// tracer records, around each call into a layer's public function, its
// wall time and the bytes it allocated, and sums the program's own obs
// counters over the traced pass. A nil *tracer records nothing, so the
// untraced reference run and the traced run share one code path.
type tracer struct {
	times  map[string][]float64 // layer.op → per-call ms
	allocs map[string]float64   // layer.op → MB allocated, summed
	before map[string]int64     // obs snapshot at start of pass
	dir    string               // directory for the traced publish writes
	bytes  int64                // bytes written by publish
	wall   time.Duration        // summed wall time of traced jobs
}

func newTracer(dir string) *tracer {
	obs.Enable()
	return &tracer{
		times:  map[string][]float64{},
		allocs: map[string]float64{},
		before: obs.Snapshot(),
		dir:    dir,
	}
}

// span runs f and, when tracing, records it under name. withAlloc adds
// the bytes f allocated to the name's allocation total; it costs two
// ReadMemStats calls, so only the layers whose allocation is a named
// metric ask for it.
func (t *tracer) span(name string, withAlloc bool, f func() error) error {
	if t == nil {
		return f()
	}
	var ms runtime.MemStats
	var alloc0 uint64
	if withAlloc {
		runtime.ReadMemStats(&ms)
		alloc0 = ms.TotalAlloc
	}
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.times[name] = append(t.times[name], float64(d.Nanoseconds())/1e6)
	if withAlloc {
		runtime.ReadMemStats(&ms)
		t.allocs[name] += float64(ms.TotalAlloc-alloc0) / (1 << 20)
	}
	return err
}

// counters returns the obs counter deltas accumulated since newTracer.
func (t *tracer) counters() map[string]int64 {
	now := obs.Snapshot()
	d := make(map[string]int64, len(now))
	for k, v := range now {
		d[k] = v - t.before[k]
	}
	return d
}

// runKernel runs job on the edge list in input through the same public
// functions, with the same arguments, that ksym and ksymd call, and
// hashes the release it would publish. The caller compares that hash
// with the binary's release, so the traced layer numbers describe the
// exact computation the end-to-end run performed.
func runKernel(ctx context.Context, input []byte, job kernelJob, t *tracer) (*kernelOut, error) {
	start := time.Now()
	var g *graph.Graph
	err := t.span("graph.read", true, func() (err error) {
		g, err = graph.Read(bytes.NewReader(input))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("read input: %w", err)
	}
	var c *graph.CSR
	_ = t.span("graph.csr", false, func() error { c = graph.NewCSR(g); return nil })

	var p *partition.Partition
	if job.tdv {
		err = t.span("refine.tdv", false, func() (err error) {
			p, err = refine.TotalDegreePartitionCSRCtx(ctx, c)
			return err
		})
	} else {
		err = t.span("automorphism.orbits", false, func() (err error) {
			p, _, err = automorphism.OrbitPartitionCtx(ctx, g, &automorphism.Options{
				NodeBudget: automorphism.DefaultNodeBudget, Workers: job.searchWorkers})
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}

	var res *ksym.Result
	target := ksym.ConstantTarget(job.k)
	if job.minimal {
		err = t.span("ksym.minimal", true, func() (err error) {
			res, err = ksym.MinimalAnonymizeFCtx(ctx, g, p, target)
			return err
		})
	} else {
		err = t.span("ksym.anonymize", true, func() (err error) {
			res, err = ksym.AnonymizeFCtx(ctx, g, p, target)
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("anonymize: %w", err)
	}

	out := &kernelOut{releaseN: res.Graph.N(), releaseM: res.Graph.M()}
	var samples []*graph.Graph
	switch {
	case job.samples > 0:
		err = t.span("sampling.batch", false, func() (err error) {
			samples, err = sampling.BatchCtx(ctx, res.Graph, res.Partition, g.N(), job.samples,
				&sampling.Options{Seed: job.sampleSeed})
			return err
		})
	case job.utilitySample:
		// The binary draws no sample here, so neither the time nor the
		// counters of this draw belong to the trace.
		traced := obs.Enabled()
		obs.Disable()
		samples, err = sampling.BatchCtx(ctx, res.Graph, res.Partition, g.N(), 1,
			&sampling.Options{Seed: job.sampleSeed})
		if traced {
			obs.Enable()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("sample: %w", err)
	}
	degs := g.DegreeSequence()
	for _, s := range samples {
		h := sha256.New()
		if err := s.Write(h); err != nil {
			return nil, err
		}
		out.sampleHashes = append(out.sampleHashes, [32]byte(h.Sum(nil)))
		out.sampleKS = append(out.sampleKS, degreeKS(degs, s.DegreeSequence()))
	}

	rel := publish.FromResult(res)
	if t != nil {
		err = t.span("publish.write", false, func() error {
			gp := filepath.Join(t.dir, "anon.edges")
			rp := filepath.Join(t.dir, "release")
			if err := res.Graph.WriteFile(gp); err != nil {
				return err
			}
			if err := rel.WriteFile(rp); err != nil {
				return err
			}
			for _, f := range []string{gp, rp} {
				fi, err := os.Stat(f)
				if err != nil {
					return err
				}
				t.bytes += fi.Size()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("publish: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := rel.Write(&buf); err != nil {
		return nil, fmt.Errorf("encode release: %w", err)
	}
	out.release = buf.Bytes()
	out.releaseHash = sha256.Sum256(out.release)
	if t != nil {
		t.wall += time.Since(start)
	}
	return out, nil
}

// eachKernel calls f(i) for every i in [0, n). Untraced, it spreads the
// calls over GOMAXPROCS goroutines, since the verification runs alone
// after the measured phase; traced, it calls them in order, so each
// layer's time is measured without the others competing for the CPUs.
func eachKernel(n int, t *tracer, f func(i int)) {
	workers := 1
	if t == nil {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// checkRelease is the correctness gate every published release passes:
// it parses through publish.Read, records the input's vertex count, its
// partition covers G′, and that partition is k-symmetric. It returns
// the release's vertex and edge counts for the cost metrics.
func checkRelease(r io.Reader, inputN, k int) (n, m int, err error) {
	rel, err := publish.Read(r)
	if err != nil {
		return 0, 0, err
	}
	if rel.OriginalN != inputN {
		return 0, 0, fmt.Errorf("release records |V| = %d, input has %d", rel.OriginalN, inputN)
	}
	if err := rel.Validate(); err != nil {
		return 0, 0, err
	}
	if !ksym.IsKSymmetric(rel.Partition, k) {
		return 0, 0, fmt.Errorf("release partition is not %d-symmetric (smallest cell %d)", k, rel.Partition.MinCellSize())
	}
	return rel.Graph.N(), rel.Graph.M(), nil
}
