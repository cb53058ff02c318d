package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// buildBinaries builds ksym and ksymd from the enclosing checkout.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+"/", "ksymmetry/cmd/ksym", "ksymmetry/cmd/ksymd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func tinyRun(t *testing.T, workload, bin string, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), config{
		workload: workload, seed: defaultSeed, seconds: 1, trace: trace, tiny: true,
		bin: bin, work: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestTinyWorkloadsPrintEveryMetric runs every workload end to end at
// tiny size, untraced and traced, and checks that the result carries
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	bin := buildBinaries(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, bin, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateRejectsTamperedRelease wraps ksym so that one job's release is
// altered after the binary wrote it, and checks that the run fails.
func TestGateRejectsTamperedRelease(t *testing.T) {
	real := buildBinaries(t)
	tampers := map[string]string{
		// Swapping the endpoints of the first edge still parses to the
		// same graph and partition; only the byte comparison with the
		// in-process run catches it.
		"swap first edge": `awk 'g == 2 && !done { print $2 " " $1; done = 1; next } g == 1 { g = 2 } $0 == "%graph" { g = 1 } { print }' "$rel" > "$rel.t"`,
		// A wrong |V(G)| record parses but fails the |V| check.
		"wrong original n": `sed 's/^%original-n .*/%original-n 1/' "$rel" > "$rel.t"`,
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			bin := t.TempDir()
			script := strings.Join([]string{
				"#!/bin/sh",
				`"` + filepath.Join(real, "ksym") + `" "$@" || exit $?`,
				`prev=; for a in "$@"; do [ "$prev" = -release ] && rel=$a; prev=$a; done`,
				`case "$rel" in */hepth-k5/release) ` + tamper + ` && mv "$rel.t" "$rel" ;; esac`,
			}, "\n") + "\n"
			if err := os.WriteFile(filepath.Join(bin, "ksym"), []byte(script), 0o755); err != nil {
				t.Fatal(err)
			}
			res := tinyRun(t, "paper-exact", bin, false)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("tampered release accepted: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}
