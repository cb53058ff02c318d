package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/graph"
)

// batchJob is one ksym process: an input file, its flags, and where its
// outputs go. Every pass of a batch workload runs the same job list.
type batchJob struct {
	name  string
	input string // edge-list path
	data  []byte // the same edge list, for the in-process reference
	n, m  int
	args  []string // ksym flags other than -in, -out, -release, -samples-dir
	kj    kernelJob
	dir   string // output directory

	// Filled by the first pass and checked against on later ones.
	releaseHash [32]byte
	sampleHash  [][32]byte
	releaseN    int
	releaseM    int
	checked     bool
}

// batchSpec is a batch workload: how to make its inputs, how many
// passes over them a run makes, and which jobs warm the binary up.
type batchSpec struct {
	passes int
	// inputs generates the workload's job list under dir.
	inputs func(dir string) ([]*batchJob, error)
	// warm generates the warm-up jobs under dir.
	warm func(dir string) ([]*batchJob, error)
}

// writeInput writes g as an edge list to path and returns the job
// fields derived from it.
func writeInput(path string, g *graph.Graph) (*batchJob, error) {
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &batchJob{input: path, data: buf.Bytes(), n: g.N(), m: g.M()}, nil
}

// paperExactSpec runs the three Table 1 stand-ins at k=5 and k=10 on the
// exact rung, and at k=5 with the backbone-minimal rebuild, each drawing
// ten samples. The networks are the calibrated stand-ins, the same on
// every seed, because the paper reports on those fixed networks and
// their orbit structure sets the cost; the workload seed draws the
// samples.
func paperExactSpec(seed int64, passes int) batchSpec {
	nets := []string{"enron", "hepth", "nettrace"}
	gens := map[string]func(int64) *graph.Graph{
		"enron": datasets.Enron, "hepth": datasets.Hepth, "nettrace": datasets.NetTrace,
	}
	configs := []struct {
		name    string
		k       int
		minimal bool
	}{
		{"k5", 5, false},
		{"k10", 10, false},
		{"k5-minimal", 5, true},
	}
	gen := func(dir string, nets []string) ([]*batchJob, error) {
		var jobs []*batchJob
		for _, net := range nets {
			base, err := writeInput(filepath.Join(dir, net+".edges"), gens[net](datasets.DefaultSeed))
			if err != nil {
				return nil, err
			}
			for _, c := range configs {
				j := *base
				j.name = net + "-" + c.name
				j.dir = filepath.Join(dir, j.name)
				sampleSeed := deriveSeed(seed, "samples-"+j.name, 0)
				j.args = []string{"-k", strconv.Itoa(c.k), "-samples", "10", "-seed", strconv.FormatInt(sampleSeed, 10)}
				if c.minimal {
					j.args = append(j.args, "-minimal")
				}
				j.kj = kernelJob{k: c.k, minimal: c.minimal, samples: 10, sampleSeed: sampleSeed}
				jobs = append(jobs, &j)
			}
		}
		return jobs, nil
	}
	return batchSpec{
		passes: passes,
		inputs: func(dir string) ([]*batchJob, error) { return gen(dir, nets) },
		warm:   func(dir string) ([]*batchJob, error) { return gen(dir, nets[:1]) },
	}
}

// scaleTDVSpec runs ksym -tdp -k 2 on BA and WS graphs of n vertices.
// The binary draws no samples; the harness draws one per release, off
// the clock, for the utility metric.
func scaleTDVSpec(seed int64, n, passes int) batchSpec {
	gen := func(dir string, n int) ([]*batchJob, error) {
		var jobs []*batchJob
		for i, model := range []string{"BA", "WS"} {
			g := datasets.ScaleGraph(model, n, deriveSeed(seed, "scale-tdv", i))
			j, err := writeInput(filepath.Join(dir, fmt.Sprintf("%s-%d.edges", model, n)), g)
			if err != nil {
				return nil, err
			}
			j.name = fmt.Sprintf("%s-%d", model, n)
			j.dir = filepath.Join(dir, j.name)
			j.args = []string{"-tdp", "-k", "2"}
			j.kj = kernelJob{k: 2, tdv: true, utilitySample: true, sampleSeed: deriveSeed(seed, "samples", i)}
			jobs = append(jobs, j)
		}
		return jobs, nil
	}
	return batchSpec{
		passes: passes,
		inputs: func(dir string) ([]*batchJob, error) { return gen(dir, n) },
		warm:   func(dir string) ([]*batchJob, error) { return gen(dir, tinyScaleN) },
	}
}

// jobRun is the outcome of one ksym process.
type jobRun struct {
	wall   time.Duration
	rssKB  int64
	failed error
}

// runJob runs j once through the ksym binary and checks its outputs.
// The first run of a job parses and checks its release; later runs
// must reproduce its bytes exactly. Only the process's own lifetime is
// timed.
func runJob(ksymBin string, j *batchJob) jobRun {
	release := filepath.Join(j.dir, "release")
	samplesDir := filepath.Join(j.dir, "samples")
	if err := os.MkdirAll(samplesDir, 0o755); err != nil {
		return jobRun{failed: err}
	}
	args := append([]string{"-in", j.input, "-out", filepath.Join(j.dir, "anon.edges"),
		"-release", release, "-samples-dir", samplesDir}, j.args...)
	cmd := exec.Command(ksymBin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	r := jobRun{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		r.failed = fmt.Errorf("%s: ksym: %v: %s", j.name, err, lastLine(stderr.String()))
		return r
	}
	r.failed = checkJobOutputs(j, release, samplesDir)
	return r
}

func checkJobOutputs(j *batchJob, release, samplesDir string) error {
	data, err := os.ReadFile(release)
	if err != nil {
		return fmt.Errorf("%s: %w", j.name, err)
	}
	h := sha256.Sum256(data)
	var samples [][32]byte
	for i := 0; i < j.kj.samples; i++ {
		s, err := os.ReadFile(filepath.Join(samplesDir, fmt.Sprintf("sample_%03d.edges", i)))
		if err != nil {
			return fmt.Errorf("%s: sample %d: %w", j.name, i, err)
		}
		samples = append(samples, sha256.Sum256(s))
	}
	if j.checked {
		if h != j.releaseHash {
			return fmt.Errorf("%s: release differs from the job's first run", j.name)
		}
		for i := range samples {
			if samples[i] != j.sampleHash[i] {
				return fmt.Errorf("%s: sample %d differs from the job's first run", j.name, i)
			}
		}
		return nil
	}
	n, m, err := checkRelease(bytes.NewReader(data), j.n, j.kj.k)
	if err != nil {
		return fmt.Errorf("%s: %w", j.name, err)
	}
	j.releaseHash, j.sampleHash, j.releaseN, j.releaseM, j.checked = h, samples, n, m, true
	return nil
}

// verifyAgainstKernel runs every job in-process (traced when t is set)
// and requires the binary's release and samples to be byte-identical to
// what the public functions produce. It returns the degree KS distance
// of every sample.
func verifyAgainstKernel(ctx context.Context, jobs []*batchJob, t *tracer) (ks []float64, failed []error) {
	outs := make([]*kernelOut, len(jobs))
	errs := make([]error, len(jobs))
	eachKernel(len(jobs), t, func(i int) {
		j := jobs[i]
		if !j.checked {
			return // its binary run already failed
		}
		kj := j.kj
		kj.utilitySample = kj.utilitySample && t != nil
		out, err := runKernel(ctx, j.data, kj, t)
		switch {
		case err != nil:
			errs[i] = fmt.Errorf("%s: in-process: %w", j.name, err)
		case out.releaseHash != j.releaseHash:
			errs[i] = fmt.Errorf("%s: release differs from the in-process run of the same job", j.name)
		case len(j.sampleHash) > 0 && !equalHashes(out.sampleHashes, j.sampleHash):
			errs[i] = fmt.Errorf("%s: samples differ from the in-process run of the same job", j.name)
		default:
			outs[i] = out
		}
	})
	for i := range jobs {
		if errs[i] != nil {
			failed = append(failed, errs[i])
		} else if outs[i] != nil {
			ks = append(ks, outs[i].sampleKS...)
		}
	}
	return ks, failed
}

func equalHashes(a, b [][32]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lastLine returns the last non-empty line of s, where ksym puts its
// error.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
