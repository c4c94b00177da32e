package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rts"
	"repro/internal/testutil"
)

// The membership-chaos harness: each seed derives a deterministic schedule
// of resizes with a fault planned at one protocol phase (or none), replays
// it against a live elastic object under continuous idempotent client load,
// and asserts the three invariants:
//
//   - element conservation — the state holds exactly the seeded multiset of
//     values after every step, however membership moved;
//   - epoch monotonicity — committed resizes advance the epoch strictly;
//     aborted ones leave epoch and size untouched;
//   - zero client-visible failures — the load client, which rebinds on
//     stale errors and retries on transient ones (exactly what
//     naming.Rebinder-style callers do), never sees a non-retryable error
//     or a wrong answer.

const (
	chaosSeeds   = 50
	chaosSteps   = 4
	chaosMaxSize = 4
)

// plannedFault is the atomic cell the fault hook consults: the target epoch
// in the high bits, the phase+1 in the low byte, zero for no fault. One cell
// per harness, written only between resizes.
type plannedFault struct{ v atomic.Int64 }

func (p *plannedFault) arm(epoch int, phase int) { p.v.Store(int64(epoch)<<8 | int64(phase+1)) }
func (p *plannedFault) disarm()                  { p.v.Store(0) }
func (p *plannedFault) hits(ph ResizePhase, epoch int) bool {
	v := p.v.Load()
	return v != 0 && int(v>>8) == epoch && int(v&0xff)-1 == int(ph)
}

// errInjected marks a fault injected by the harness; the resize must surface
// it (pre-commit) or absorb it (post-commit), never mistake it for its own.
var errInjected = fmt.Errorf("injected membership fault")

func TestResizeChaos(t *testing.T) {
	// The seed set is fixed, so phase coverage is a deterministic property
	// of the harness itself: prove every resize phase gets faulted before
	// spending any time replaying.
	covered := map[int]bool{}
	for seed := int64(0); seed < chaosSeeds; seed++ {
		s := testutil.NewChaosSchedule(seed, chaosSteps, 1, chaosMaxSize, int(numResizePhases))
		for p := range s.FaultPhases(int(numResizePhases)) {
			covered[p] = true
		}
	}
	for p := 0; p < int(numResizePhases); p++ {
		if !covered[p] {
			t.Fatalf("seed set [0,%d) never faults phase %s — widen it", chaosSeeds, ResizePhase(p))
		}
	}
	for seed := int64(0); seed < chaosSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			testutil.CheckGoroutines(t, "chaos", func(t *testing.T) {
				runResizeChaos(t, seed)
			})
		})
	}
}

func runResizeChaos(t *testing.T, seed int64) {
	sched := testutil.NewChaosSchedule(seed, chaosSteps, 1, chaosMaxSize, int(numResizePhases))
	var fault plannedFault
	el, ns := startElastic(t, 2, func(o *ElasticOptions) {
		o.faultHook = func(ph ResizePhase, epoch int) error {
			if fault.hits(ph, epoch) {
				return fmt.Errorf("%w at %s (epoch %d)", errInjected, ph, epoch)
			}
			return nil
		}
	})

	// Continuous load: one client goroutine summing in a loop for the whole
	// replay, with the standard rebind-and-retry envelope. It fails the test
	// only on a non-retryable error or a wrong total.
	stopLoad := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() { loadErr <- chaosLoad(ns.Addr(), stopLoad) }()

	var clock testutil.VirtualClock
	epochs := []int{el.Epoch()}
	size := el.Size()
	for i, step := range sched.Steps {
		if err := clock.AdvanceTo(step.Time); err != nil {
			t.Fatal(err)
		}
		epoch := el.Epoch()
		if step.FaultPhase >= 0 {
			fault.arm(epoch+1, step.FaultPhase)
		}
		err := el.Resize(step.Target)
		fault.disarm()
		switch {
		case step.Target == size:
			// No-op resize (only the first step can collide with the
			// initial size): nothing changes, no fault is consulted.
			if err != nil {
				t.Fatalf("step %d: no-op resize to %d: %v", i, step.Target, err)
			}
			if el.Epoch() != epoch {
				t.Fatalf("step %d: no-op resize advanced the epoch", i)
			}
		case step.FaultPhase >= 0 && ResizePhase(step.FaultPhase) != ResizeRetire:
			// Pre-commit fault: the resize must abort, surfacing the
			// injected error, and membership must be untouched.
			if err == nil {
				t.Fatalf("step %d: fault at %s did not abort the resize",
					i, ResizePhase(step.FaultPhase))
			}
			if el.Epoch() != epoch || el.Size() != size {
				t.Fatalf("step %d: aborted resize moved membership to epoch %d size %d",
					i, el.Epoch(), el.Size())
			}
		default:
			// Clean resize, or a post-commit (retire) fault that must be
			// absorbed: the new epoch commits either way.
			if err != nil {
				t.Fatalf("step %d: resize to %d: %v", i, step.Target, err)
			}
			if el.Epoch() != epoch+1 || el.Size() != step.Target {
				t.Fatalf("step %d: committed resize at epoch %d size %d, want epoch %d size %d",
					i, el.Epoch(), el.Size(), epoch+1, step.Target)
			}
			size = step.Target
			epochs = append(epochs, el.Epoch())
		}
		// The object is always reachable and always sums to the seeded
		// total, whatever just happened.
		if got := elasticSumOnce(t, ns.Addr()); got != elasticSum {
			t.Fatalf("step %d: sum %v, want %v", i, got, elasticSum)
		}
	}
	close(stopLoad)
	if err := <-loadErr; err != nil {
		t.Fatalf("load client: %v", err)
	}
	if err := testutil.Monotonic(epochs); err != nil {
		t.Fatalf("committed epochs %v: %v", epochs, err)
	}
	// Element conservation, value by value: the live state is exactly the
	// seeded multiset after the whole schedule.
	want := make([]float64, elasticLen)
	for i := range want {
		want[i] = float64(i + 1)
	}
	if err := testutil.Conserved(want, elasticGetOnce(t, ns.Addr())); err != nil {
		t.Fatal(err)
	}
	el.Close()
	ns.Close()
}

// chaosLoad hammers the object with the idempotent reduction until stopped,
// rebinding on stale errors and retrying on transient ones. Any other
// failure — or a wrong total — is a client-visible resize defect.
func chaosLoad(nsAddr string, stop <-chan struct{}) error {
	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	return w.Run(func(c *rts.Comm) error {
		var b *Binding
		defer func() {
			if b != nil {
				b.Close()
			}
		}()
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			if b == nil {
				nb, err := SPMDBind(c, "elastic", nsAddr, BindOptions{Timeout: testTimeout})
				if err != nil {
					if retryableDuringResize(err) {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					return fmt.Errorf("bind: %w", err)
				}
				b = nb
			}
			reply, err := b.Invoke("esum", nil, nil)
			if err != nil {
				b.Close()
				b = nil
				if retryableDuringResize(err) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				return fmt.Errorf("non-retryable invocation failure: %w", err)
			}
			d, err := ScalarDecoder(reply)
			if err != nil {
				return err
			}
			if total, err := d.ReadDouble(); err != nil || total != elasticSum {
				return fmt.Errorf("sum = %v (%v), want %v", total, err, elasticSum)
			}
		}
	})
}
