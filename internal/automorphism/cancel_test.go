package automorphism

import (
	"context"
	"errors"
	"testing"
	"time"

	"ksymmetry/internal/datasets"
	"ksymmetry/internal/faulttest"
)

// cancelCycle is a cycle large enough that, with generator-orbit
// pruning disabled, classifying its single degree cell takes seconds:
// every vertex pays an individualized refinement against the class
// root, giving the cancellation tests a long, deterministic workload.
const cancelCycle = 20000

func TestCancelMidSearch(t *testing.T) {
	g := datasets.Cycle(cancelCycle)
	base := faulttest.Goroutines()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := OrbitPartitionCtx(ctx, g, &Options{DisableOrbitPruning: true})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the pairwise searches get going
	cancel()
	faulttest.ExpectErr(t, errc, context.Canceled)
	faulttest.AssertNoLeak(t, base)
}

func TestCancelMidSearchParallel(t *testing.T) {
	g := datasets.Cycle(cancelCycle)
	base := faulttest.Goroutines()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := OrbitPartitionCtx(ctx, g, &Options{DisableOrbitPruning: true, Workers: 4})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	faulttest.ExpectErr(t, errc, context.Canceled)
	faulttest.AssertNoLeak(t, base) // the worker pool must drain, not leak
}

func TestDeadlineMidSearch(t *testing.T) {
	g := datasets.Cycle(cancelCycle)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := OrbitPartitionCtx(ctx, g, &Options{DisableOrbitPruning: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 30*time.Millisecond+faulttest.Latency {
		t.Fatalf("deadline overshoot: ran %v", d)
	}
}

func TestCancelledContextStillReturnsOnTinyGraph(t *testing.T) {
	// Amortized polling means a computation smaller than one poll
	// interval may finish despite a dead context — that is the
	// documented trade; it must not hang or panic either way.
	g := datasets.Cycle(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := OrbitPartitionCtx(ctx, g, nil); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
}
