package testutil

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// recorder captures failures so the checkers themselves can be tested
// without failing the real test.
type recorder struct {
	testing.TB
	failed atomic.Bool
	msg    string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.failed.Store(true)
	r.msg = format
}
func (r *recorder) Fatal(args ...any) {
	r.failed.Store(true)
	panic("recorder.Fatal")
}

func TestLeakCheckPassesOnTransientGoroutines(t *testing.T) {
	r := &recorder{TB: t}
	done := LeakCheckWindow(r, 5*time.Second)
	// Goroutines that exit shortly after the body: the settle window must
	// absorb them.
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() { <-stop }()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	done()
	if r.failed.Load() {
		t.Fatalf("transient goroutines reported as a leak: %s", r.msg)
	}
}

// quiesce waits until the goroutine count has held still for a while, so that
// goroutines of earlier tests still on their way out cannot exit inside a
// measurement window and make up for a planted leak.
func quiesce() {
	n := runtime.NumGoroutine()
	for still := 0; still < 20; still++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
}

func TestLeakCheckCatchesARealLeak(t *testing.T) {
	r := &recorder{TB: t}
	quiesce()
	done := LeakCheckWindow(r, 100*time.Millisecond)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }() // outlives the window: a leak
	time.Sleep(10 * time.Millisecond)
	done()
	if !r.failed.Load() {
		t.Fatal("a parked goroutine was not reported as a leak")
	}
}

func TestBalanceCheckSettles(t *testing.T) {
	var bal atomic.Int64
	r := &recorder{TB: t}
	done := BalanceCheck(r, "frames", bal.Load)
	bal.Add(3)
	go func() {
		time.Sleep(20 * time.Millisecond)
		bal.Add(-3)
	}()
	done()
	if r.failed.Load() {
		t.Fatalf("settling balance reported as a leak: %s", r.msg)
	}
}

func TestBalanceCheckCatchesImbalance(t *testing.T) {
	var bal atomic.Int64
	r := &recorder{TB: t}
	// Shrink the window via a goroutine-free counter that never settles; use
	// the internal settle directly to keep the test fast.
	bal.Add(2)
	if d, ok := settle(func() int64 { return bal.Load() }, 50*time.Millisecond); ok || d != 2 {
		t.Fatalf("settle on a stuck balance: d=%d ok=%v, want 2,false", d, ok)
	}
	_ = r
}

func TestCheckGoroutinesRunsBodyAsSubtest(t *testing.T) {
	ran := false
	CheckGoroutines(t, "body", func(t *testing.T) {
		ran = true
		stop := make(chan struct{})
		t.Cleanup(func() { close(stop) })
		go func() { <-stop }() // cleaned up inside the measurement window
	})
	if !ran {
		t.Fatal("body never ran")
	}
}

func TestEventually(t *testing.T) {
	var n atomic.Int64
	go func() {
		time.Sleep(15 * time.Millisecond)
		n.Store(1)
	}()
	Eventually(t, 5*time.Second, "condition never held", func() bool { return n.Load() == 1 })
}
