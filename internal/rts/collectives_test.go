package rts

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var worldSizes = []int{1, 2, 3, 4, 5, 8, 13}

func forSizes(t *testing.T, fn func(t *testing.T, n int)) {
	t.Helper()
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			fn(t, n)
		})
	}
}

func TestBarrierOrdering(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		w := testWorld(t, n)
		// Every rank increments a counter before the barrier; after the
		// barrier each rank must observe the full count.
		counts := make(chan int, n)
		arrived := make(chan struct{}, n)
		err := w.Run(func(c *Comm) error {
			arrived <- struct{}{}
			if err := c.Barrier(); err != nil {
				return err
			}
			counts <- len(arrived)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got := <-counts; got != n {
				t.Fatalf("rank observed %d arrivals before barrier release, want %d", got, n)
			}
		}
	})
}

func TestBcastAllRoots(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			for root := 0; root < n; root++ {
				var in []byte
				if c.Rank() == root {
					in = []byte(fmt.Sprintf("payload-from-%d", root))
				}
				out, err := c.Bcast(root, in)
				if err != nil {
					return err
				}
				want := fmt.Sprintf("payload-from-%d", root)
				if string(out) != want {
					return fmt.Errorf("rank %d root %d: got %q want %q", c.Rank(), root, out, want)
				}
			}
			return nil
		})
	})
}

func testGatherAllRoots(t *testing.T, alg GatherAlgorithm) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			w := NewWorld(n, Options{RecvTimeout: 10 * time.Second, Gather: alg})
			t.Cleanup(w.Close)
			err := w.Run(func(c *Comm) error {
				for root := 0; root < n; root++ {
					// Variable-size contributions exercise the gatherv path.
					in := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
					out, err := c.Gather(root, in)
					if err != nil {
						return err
					}
					if c.Rank() != root {
						if out != nil {
							return fmt.Errorf("non-root rank %d got non-nil gather result", c.Rank())
						}
						continue
					}
					for r := 0; r < n; r++ {
						want := bytes.Repeat([]byte{byte(r)}, r+1)
						if !bytes.Equal(out[r], want) {
							return fmt.Errorf("root %d entry %d: got %v want %v", root, r, out[r], want)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGatherFlat(t *testing.T)     { testGatherAllRoots(t, GatherFlat) }
func TestGatherBinomial(t *testing.T) { testGatherAllRoots(t, GatherBinomial) }

func TestScatterAllRoots(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			for root := 0; root < n; root++ {
				var parts [][]byte
				if c.Rank() == root {
					parts = make([][]byte, n)
					for r := range parts {
						parts[r] = []byte(fmt.Sprintf("part-%d-of-%d", r, root))
					}
				}
				got, err := c.Scatter(root, parts)
				if err != nil {
					return err
				}
				want := fmt.Sprintf("part-%d-of-%d", c.Rank(), root)
				if string(got) != want {
					return fmt.Errorf("rank %d root %d: got %q want %q", c.Rank(), root, got, want)
				}
			}
			return nil
		})
	})
}

// TestForwardAllPairs: Forward delivers src's data to dst and to nobody else,
// for every pair of ranks (a rank to itself included), stays in step with the
// collectives around it — every rank spends one sequence number on it, whether
// or not it took part — and costs the two ranks that do no object beyond the
// message.
func TestForwardAllPairs(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					var in []byte
					if c.Rank() == src {
						in = []byte(fmt.Sprintf("from-%d-to-%d", src, dst))
					}
					before := c.Collectives()
					got, err := c.Forward(src, dst, in)
					if err != nil {
						return err
					}
					if c.Collectives() != before+1 {
						return fmt.Errorf("rank %d: Forward took %d sequence numbers", c.Rank(), c.Collectives()-before)
					}
					want := ""
					if c.Rank() == dst {
						want = fmt.Sprintf("from-%d-to-%d", src, dst)
					}
					if string(got) != want {
						return fmt.Errorf("rank %d, %d to %d: got %q want %q", c.Rank(), src, dst, got, want)
					}
				}
				// A rooted collective right behind it must not see its traffic.
				if _, err := c.Bcast(src, []byte{byte(src)}); err != nil {
					return err
				}
			}
			if _, err := c.Forward(0, n, nil); !errors.Is(err, ErrRank) {
				return fmt.Errorf("Forward to rank %d of %d: %v", n, n, err)
			}
			return nil
		})
	})
}

func TestScatterWrongPartsCount(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Scatter(0, [][]byte{nil}) // only 1 part for 2 ranks
			if !errors.Is(err, ErrSizes) {
				return fmt.Errorf("want ErrSizes, got %v", err)
			}
			// Unblock rank 1, which is waiting in its Scatter, by sending on
			// the same reserved tag it expects.
			return c.send(1, collTag(opScatter, 0), []byte("x"))
		}
		_, err := c.Scatter(0, nil)
		return err
	})
}

func TestAllgather(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			in := []byte(fmt.Sprintf("r%d", c.Rank()))
			out, err := c.Allgather(in)
			if err != nil {
				return err
			}
			if len(out) != n {
				return fmt.Errorf("got %d entries", len(out))
			}
			for r := 0; r < n; r++ {
				if string(out[r]) != fmt.Sprintf("r%d", r) {
					return fmt.Errorf("rank %d entry %d = %q", c.Rank(), r, out[r])
				}
			}
			return nil
		})
	})
}

func TestReduceSum(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			in := Float64sToBytes([]float64{float64(c.Rank()), 1})
			out, err := c.Reduce(0, in, SumFloat64)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				if out != nil {
					return errors.New("non-root got reduce result")
				}
				return nil
			}
			v, err := BytesToFloat64s(out)
			if err != nil {
				return err
			}
			wantSum := float64(n*(n-1)) / 2
			if v[0] != wantSum || v[1] != float64(n) {
				return fmt.Errorf("reduce got %v, want [%v %v]", v, wantSum, n)
			}
			return nil
		})
	})
}

func TestAllreduceMinMax(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			in := Int64sToBytes([]int64{int64(c.Rank())})
			mx, err := c.Allreduce(in, MaxInt64)
			if err != nil {
				return err
			}
			mn, err := c.Allreduce(in, MinInt64)
			if err != nil {
				return err
			}
			mxv, _ := BytesToInt64s(mx)
			mnv, _ := BytesToInt64s(mn)
			if mxv[0] != int64(n-1) || mnv[0] != 0 {
				return fmt.Errorf("allreduce max=%d min=%d", mxv[0], mnv[0])
			}
			return nil
		})
	})
}

func TestAlltoall(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			parts := make([][]byte, n)
			for d := range parts {
				parts[d] = []byte(fmt.Sprintf("%d->%d", c.Rank(), d))
			}
			out, err := c.Alltoall(parts)
			if err != nil {
				return err
			}
			for s := 0; s < n; s++ {
				want := fmt.Sprintf("%d->%d", s, c.Rank())
				if string(out[s]) != want {
					return fmt.Errorf("rank %d from %d: got %q want %q", c.Rank(), s, out[s], want)
				}
			}
			return nil
		})
	})
}

func TestScanConcat(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		run(t, n, func(c *Comm) error {
			in := []byte{byte('a' + c.Rank())}
			out, err := c.Scan(in, Concat)
			if err != nil {
				return err
			}
			want := make([]byte, c.Rank()+1)
			for i := range want {
				want[i] = byte('a' + i)
			}
			if !bytes.Equal(out, want) {
				return fmt.Errorf("rank %d scan got %q want %q", c.Rank(), out, want)
			}
			return nil
		})
	})
}

func TestScanSum(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		in := Int64sToBytes([]int64{int64(c.Rank() + 1)})
		out, err := c.Scan(in, SumInt64)
		if err != nil {
			return err
		}
		v, _ := BytesToInt64s(out)
		r := int64(c.Rank() + 1)
		want := r * (r + 1) / 2
		if v[0] != want {
			return fmt.Errorf("rank %d prefix sum %d want %d", c.Rank(), v[0], want)
		}
		return nil
	})
}

func TestBackToBackCollectivesDoNotInterfere(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		// A rapid-fire mixture of collectives; sequence numbering must keep
		// them separated even with no intervening synchronization.
		for i := 0; i < 20; i++ {
			data := []byte{byte(i), byte(c.Rank())}
			got, err := c.Bcast(i%4, data)
			if err != nil {
				return err
			}
			if got[0] != byte(i) || got[1] != byte(i%4) {
				return fmt.Errorf("iter %d: cross-talk %v", i, got)
			}
			if _, err := c.Gather(0, data); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

// Property: for any payload set, Gather(root) followed by Scatter(root)
// returns every rank its own payload (the two are inverses).
func TestGatherScatterInverseProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		payloads := make([][]byte, n)
		for r := range payloads {
			payloads[r] = make([]byte, rng.Intn(64))
			rng.Read(payloads[r])
		}
		w := NewWorld(n, Options{RecvTimeout: 10 * time.Second})
		defer w.Close()
		ok := true
		err := w.Run(func(c *Comm) error {
			gathered, err := c.Gather(0, payloads[c.Rank()])
			if err != nil {
				return err
			}
			back, err := c.Scatter(0, gathered)
			if err != nil {
				return err
			}
			if !bytes.Equal(back, payloads[c.Rank()]) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Allreduce(SumInt64) equals the local sum of all inputs,
// regardless of world size and values.
func TestAllreduceSumProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		vals := make([]int64, n)
		var want int64
		for i := range vals {
			vals[i] = int64(rng.Intn(2001) - 1000)
			want += vals[i]
		}
		w := NewWorld(n, Options{RecvTimeout: 10 * time.Second})
		defer w.Close()
		ok := true
		err := w.Run(func(c *Comm) error {
			out, err := c.Allreduce(Int64sToBytes([]int64{vals[c.Rank()]}), SumInt64)
			if err != nil {
				return err
			}
			v, err := BytesToInt64s(out)
			if err != nil {
				return err
			}
			if v[0] != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := map[int][]byte{}
		for i, n := 0, rng.Intn(10); i < n; i++ {
			b := make([]byte, rng.Intn(50))
			rng.Read(b)
			m[rng.Intn(1000)] = b
		}
		got, err := decodeBundle(encodeBundle(m))
		if err != nil || len(got) != len(m) {
			return false
		}
		for r, b := range m {
			if !bytes.Equal(got[r], b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBundleCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 0, 0},
		{1, 0, 0, 0, 5, 0, 0, 0}, // truncated entry header
		{1, 0, 0, 0, 5, 0, 0, 0, 9, 0, 0, 0, 1, 2}, // payload shorter than length
		{2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0xff}, // second entry missing
	}
	for i, c := range cases {
		if _, err := decodeBundle(c); err == nil {
			t.Errorf("case %d: corrupt bundle accepted", i)
		}
	}
}

func TestReduceOperandSizeMismatch(t *testing.T) {
	_, err := SumFloat64([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1})
	if !errors.Is(err, ErrSizes) {
		t.Fatalf("want ErrSizes, got %v", err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	prop := func(v []float64) bool {
		got, err := BytesToFloat64s(Float64sToBytes(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			// NaN-safe bitwise comparison.
			if Float64sToBytes(v[i : i+1])[0] != Float64sToBytes(got[i : i+1])[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := BytesToFloat64s([]byte{1, 2, 3}); err == nil {
		t.Fatal("odd-length payload accepted")
	}
}

func TestInt64RoundTrip(t *testing.T) {
	prop := func(v []int64) bool {
		got, err := BytesToInt64s(Int64sToBytes(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := BytesToInt64s([]byte{1, 2, 3}); err == nil {
		t.Fatal("odd-length payload accepted")
	}
}
