package dseq

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dist"
	"repro/internal/rts"
)

func run(t *testing.T, n int, fn func(c *rts.Comm) error) {
	t.Helper()
	w := rts.NewWorld(n, rts.Options{RecvTimeout: 10 * time.Second})
	t.Cleanup(w.Close)
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
}

func TestNewAndFill(t *testing.T) {
	run(t, 4, func(c *rts.Comm) error {
		s, err := New(c, Float64, 100, nil)
		if err != nil {
			return err
		}
		if s.Len() != 100 {
			return fmt.Errorf("len %d", s.Len())
		}
		if s.LocalLen() != 25 {
			return fmt.Errorf("rank %d local len %d", c.Rank(), s.LocalLen())
		}
		s.FillFunc(func(g int) float64 { return float64(g) * 2 })
		full, err := s.Collect()
		if err != nil {
			return err
		}
		for i, v := range full {
			if v != float64(i)*2 {
				return fmt.Errorf("full[%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestAtIsLocationTransparent(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		s, err := New(c, Int32, 10, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) int32 { return int32(100 + g) })
		for i := 0; i < 10; i++ {
			v, err := s.At(i)
			if err != nil {
				return err
			}
			if v != int32(100+i) {
				return fmt.Errorf("rank %d At(%d) = %d", c.Rank(), i, v)
			}
		}
		_, err = s.At(10)
		if !errors.Is(err, ErrIndex) {
			return fmt.Errorf("At(10): %v", err)
		}
		_, err = s.At(-1)
		if !errors.Is(err, ErrIndex) {
			return fmt.Errorf("At(-1): %v", err)
		}
		return nil
	})
}

func TestSetThenAt(t *testing.T) {
	run(t, 4, func(c *rts.Comm) error {
		s, err := New(c, String, 8, nil)
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := s.Set(i, fmt.Sprintf("elem-%d", i)); err != nil {
				return err
			}
		}
		for i := 0; i < 8; i++ {
			v, err := s.At(i)
			if err != nil {
				return err
			}
			if v != fmt.Sprintf("elem-%d", i) {
				return fmt.Errorf("At(%d) = %q", i, v)
			}
		}
		if err := s.Set(99, "x"); !errors.Is(err, ErrIndex) {
			return fmt.Errorf("Set(99): %v", err)
		}
		return nil
	})
}

func TestFromLocalConversion(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		// Uneven contributions: rank r brings r+1 elements.
		mine := make([]float64, c.Rank()+1)
		for i := range mine {
			mine[i] = float64(c.Rank()*10 + i)
		}
		s, err := FromLocal(c, Float64, mine)
		if err != nil {
			return err
		}
		if s.Len() != 6 {
			return fmt.Errorf("len %d", s.Len())
		}
		// Adoption, not copy.
		mine[0] = -1
		if s.LocalData()[0] != -1 {
			return errors.New("FromLocal copied the data")
		}
		mine[0] = float64(c.Rank() * 10)
		full, err := s.Collect()
		if err != nil {
			return err
		}
		want := []float64{0, 10, 11, 20, 21, 22}
		for i := range want {
			if full[i] != want[i] {
				return fmt.Errorf("full = %v", full)
			}
		}
		return nil
	})
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, spec := range []dist.Spec{nil, dist.Proportions{P: []int{1, 3, 2, 2}}, dist.Cyclic{BlockSize: 3}} {
		spec := spec
		t.Run(fmt.Sprint(spec), func(t *testing.T) {
			run(t, 4, func(c *rts.Comm) error {
				s, err := New(c, Float64, 103, spec)
				if err != nil {
					return err
				}
				s.FillFunc(func(g int) float64 { return float64(g) })
				payload, err := s.GatherMarshal(0)
				if err != nil {
					return err
				}
				var full []float64
				if c.Rank() == 0 {
					if full, err = UnmarshalChunk(s.Codec(), payload); err != nil {
						return err
					}
					for i, v := range full {
						if v != float64(i) {
							return fmt.Errorf("gathered[%d] = %v", i, v)
						}
					}
					// Perturb and scatter back.
					for i := range full {
						full[i] = -full[i]
					}
					payload = MarshalChunk(s.Codec(), full)
				} else if payload != nil {
					return errors.New("non-root received gather result")
				}
				if err := s.ScatterUnmarshal(0, payload); err != nil {
					return err
				}
				back, err := s.Collect()
				if err != nil {
					return err
				}
				for i, v := range back {
					if v != -float64(i) {
						return fmt.Errorf("scattered[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

func TestRedistributeBlockToProportions(t *testing.T) {
	run(t, 4, func(c *rts.Comm) error {
		s, err := New(c, Float64, 1200, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) float64 { return float64(g) })
		// The paper's Proportions(2,4,2,4) example.
		if err := s.Redistribute(dist.Proportions{P: []int{2, 4, 2, 4}}); err != nil {
			return err
		}
		wantCounts := []int{200, 400, 200, 400}
		if s.LocalLen() != wantCounts[c.Rank()] {
			return fmt.Errorf("rank %d has %d elements, want %d", c.Rank(), s.LocalLen(), wantCounts[c.Rank()])
		}
		full, err := s.Collect()
		if err != nil {
			return err
		}
		for i, v := range full {
			if v != float64(i) {
				return fmt.Errorf("after redistribute full[%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestRedistributeToCyclicAndBack(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		s, err := New(c, Int32, 50, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) int32 { return int32(g * g) })
		if err := s.Redistribute(dist.Cyclic{BlockSize: 2}); err != nil {
			return err
		}
		if err := s.Redistribute(dist.Block{}); err != nil {
			return err
		}
		full, err := s.Collect()
		if err != nil {
			return err
		}
		for i, v := range full {
			if v != int32(i*i) {
				return fmt.Errorf("full[%d] = %d", i, v)
			}
		}
		return nil
	})
}

func TestRedistributePreservesDataProperty(t *testing.T) {
	specs := []dist.Spec{
		dist.Block{},
		dist.Cyclic{BlockSize: 1},
		dist.Cyclic{BlockSize: 5},
		dist.Proportions{P: []int{5, 1, 1, 3}},
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		length := rng.Intn(300)
		from := specs[rng.Intn(len(specs))]
		to := specs[rng.Intn(len(specs))]
		if p, ok := from.(dist.Proportions); ok && len(p.P) != 4 {
			return true
		}
		w := rts.NewWorld(4, rts.Options{RecvTimeout: 10 * time.Second})
		defer w.Close()
		ok := true
		err := w.Run(func(c *rts.Comm) error {
			s, err := New(c, Int64, length, from)
			if err != nil {
				return err
			}
			s.FillFunc(func(g int) int64 { return int64(g) * 7 })
			if err := s.Redistribute(to); err != nil {
				return err
			}
			full, err := s.Collect()
			if err != nil {
				return err
			}
			for i, v := range full {
				if v != int64(i)*7 {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSetLenShrink(t *testing.T) {
	run(t, 4, func(c *rts.Comm) error {
		s, err := New(c, Float64, 100, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) float64 { return float64(g) })
		if err := s.SetLen(30); err != nil {
			return err
		}
		if s.Len() != 30 {
			return fmt.Errorf("len %d", s.Len())
		}
		full, err := s.Collect()
		if err != nil {
			return err
		}
		if len(full) != 30 {
			return fmt.Errorf("collected %d", len(full))
		}
		for i, v := range full {
			if v != float64(i) {
				return fmt.Errorf("full[%d] = %v", i, v)
			}
		}
		// Ranks 2,3 (owning [50,100)) must now be empty.
		if c.Rank() >= 2 && s.LocalLen() != 0 {
			return fmt.Errorf("rank %d still owns %d", c.Rank(), s.LocalLen())
		}
		return nil
	})
}

func TestSetLenGrowPaperSemantics(t *testing.T) {
	run(t, 4, func(c *rts.Comm) error {
		s, err := New(c, Float64, 40, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) float64 { return float64(g) })
		// "new elements will be added to the ownership of the computing
		// thread which owned the last elements of the old sequence" — that
		// is rank 3 here.
		if err := s.SetLen(60); err != nil {
			return err
		}
		want := []int{10, 10, 10, 30}
		if s.LocalLen() != want[c.Rank()] {
			return fmt.Errorf("rank %d owns %d, want %d", c.Rank(), s.LocalLen(), want[c.Rank()])
		}
		full, err := s.Collect()
		if err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			if full[i] != float64(i) {
				return fmt.Errorf("data lost at %d: %v", i, full[i])
			}
		}
		for i := 40; i < 60; i++ {
			if full[i] != 0 {
				return fmt.Errorf("new element %d not zero: %v", i, full[i])
			}
		}
		return nil
	})
}

func TestSetLenGrowFromEmpty(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		s, err := New(c, Int32, 0, nil)
		if err != nil {
			return err
		}
		if err := s.SetLen(7); err != nil {
			return err
		}
		want := 0
		if c.Rank() == 0 {
			want = 7
		}
		if s.LocalLen() != want {
			return fmt.Errorf("rank %d owns %d", c.Rank(), s.LocalLen())
		}
		if err := s.SetLen(-1); err == nil {
			return errors.New("negative length accepted")
		}
		return nil
	})
}

func TestSetLenShrinkCyclic(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		s, err := New(c, Int32, 30, dist.Cyclic{BlockSize: 2})
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) int32 { return int32(g) })
		if err := s.SetLen(13); err != nil {
			return err
		}
		full, err := s.Collect()
		if err != nil {
			return err
		}
		if len(full) != 13 {
			return fmt.Errorf("collected %d", len(full))
		}
		for i, v := range full {
			if v != int32(i) {
				return fmt.Errorf("full[%d] = %d (%v)", i, v, full)
			}
		}
		return nil
	})
}

func TestSetLocalValidation(t *testing.T) {
	run(t, 2, func(c *rts.Comm) error {
		s, err := New(c, Float64, 10, nil)
		if err != nil {
			return err
		}
		if err := s.SetLocal(make([]float64, 3)); !errors.Is(err, ErrLayout) {
			return fmt.Errorf("wrong-size SetLocal: %v", err)
		}
		return s.SetLocal(make([]float64, 5))
	})
}

func TestSingleRankSequence(t *testing.T) {
	run(t, 1, func(c *rts.Comm) error {
		s, err := New(c, Float64, 5, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) float64 { return float64(g) })
		if s.LocalLen() != 5 {
			return fmt.Errorf("local %d", s.LocalLen())
		}
		v, err := s.At(3)
		if err != nil || v != 3 {
			return fmt.Errorf("At(3) = %v, %v", v, err)
		}
		if err := s.Redistribute(nil); err != nil {
			return err
		}
		return s.SetLen(2)
	})
}
