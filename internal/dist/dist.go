// Package dist implements PARDIS distribution templates: descriptions of how
// the elements of a distributed sequence are partitioned over the address
// spaces of an SPMD object's computing threads.
//
// The paper's §2.2 defines the default "uniform blockwise" distribution and
// the PARDIS::Proportions object ("Proportions(2,4,2,4)" distributes in the
// ratio 2:4:2:4 over threads 0..3). This package provides both, plus a
// block-cyclic template as the kind of "other distributed argument
// structure" the paper's future-work section anticipates.
//
// A Spec is a distribution law independent of any particular sequence; a
// Layout is the law applied to a concrete (length, ranks) pair: an exact
// partition of [0, length) into per-rank interval lists. Plan computes the
// minimal set of contiguous copies that re-shapes data from one layout to
// another; it is the heart of both the multi-port transfer method (client
// layout → server layout) and of Seq.Redistribute.
package dist

import (
	"errors"
	"fmt"

	"repro/internal/cdr"
)

// Errors reported by this package.
var (
	ErrBadSpec    = errors.New("dist: invalid distribution spec")
	ErrBadLayout  = errors.New("dist: layout is not a partition")
	ErrNegative   = errors.New("dist: negative length or ranks")
	ErrMismatched = errors.New("dist: layouts have different lengths")
)

// Interval is a contiguous range of global element indices.
type Interval struct {
	Start int // first global index
	Len   int // number of elements
}

// End returns the first index past the interval.
func (iv Interval) End() int { return iv.Start + iv.Len }

// Spec is a distribution law that can be instantiated for any sequence
// length and rank count, and can travel inside request headers.
type Spec interface {
	// Layout applies the law, partitioning [0, length) over ranks.
	Layout(length, ranks int) (Layout, error)
	// String renders the law in the IDL syntax used by dsequence.
	String() string
	// kind returns the wire discriminant.
	kind() specKind
	// encodeBody writes the law's parameters (not the discriminant).
	encodeBody(e *cdr.Encoder)
}

type specKind uint32

const (
	kindBlock specKind = iota + 1
	kindProportions
	kindCyclic
)

// Block is the uniform blockwise distribution: rank r owns the r-th of
// ranks nearly equal contiguous blocks. The first length%ranks ranks own
// one extra element, so sizes differ by at most one.
type Block struct{}

// Layout implements Spec.
func (b Block) Layout(length, ranks int) (Layout, error) {
	var l Layout
	return l, b.LayoutInto(&l, length, ranks)
}

// LayoutInto is Layout into l, reusing the storage of the last LayoutInto or
// DecodeLayout into l up to KeptIntervals: what l held before, and any layout
// sharing its intervals, is overwritten.
func (Block) LayoutInto(l *Layout, length, ranks int) error {
	if length < 0 || ranks < 1 {
		return fmt.Errorf("%w: length %d ranks %d", ErrNegative, length, ranks)
	}
	// All per-rank lists are single intervals, so they can share one flat
	// backing array instead of allocating ranks separate one-element slices.
	// Full-capacity slicing keeps the views from spilling into each other.
	ivs, flat := l.Intervals, l.flat
	if cap(ivs) < ranks || cap(ivs) > KeptIntervals || cap(flat) < ranks || cap(flat) > KeptIntervals {
		ivs, flat = make([][]Interval, ranks), make([]Interval, ranks)
	}
	ivs, flat = ivs[:ranks], flat[:ranks]
	base := length / ranks
	extra := length % ranks
	off := 0
	for r := 0; r < ranks; r++ {
		n := base
		if r < extra {
			n++
		}
		flat[r], ivs[r] = Interval{Start: off, Len: n}, nil
		if n > 0 {
			ivs[r] = flat[r : r+1 : r+1]
		}
		off += n
	}
	*l = Layout{Length: length, Ranks: ranks, Intervals: ivs, flat: flat}
	return nil
}

func (Block) String() string            { return "block" }
func (Block) kind() specKind            { return kindBlock }
func (Block) encodeBody(e *cdr.Encoder) {}

// Proportions distributes blockwise in the given per-rank ratio, the
// PARDIS::Proportions object of the paper. Proportions{2,4,2,4} gives rank 1
// twice the elements of rank 0. Rounding remainders are assigned greedily to
// the ranks with the largest fractional parts, so the result is an exact
// partition whose sizes deviate from the exact ratio by at most one.
type Proportions struct {
	P []int
}

// Layout implements Spec. The number of proportions must equal ranks.
func (p Proportions) Layout(length, ranks int) (Layout, error) {
	if length < 0 || ranks < 1 {
		return Layout{}, fmt.Errorf("%w: length %d ranks %d", ErrNegative, length, ranks)
	}
	if len(p.P) != ranks {
		return Layout{}, fmt.Errorf("%w: %d proportions for %d ranks", ErrBadSpec, len(p.P), ranks)
	}
	total := 0
	for i, v := range p.P {
		if v < 0 {
			return Layout{}, fmt.Errorf("%w: proportion %d is negative (%d)", ErrBadSpec, i, v)
		}
		total += v
	}
	if total == 0 {
		return Layout{}, fmt.Errorf("%w: proportions sum to zero", ErrBadSpec)
	}
	// Largest-remainder apportionment.
	counts := make([]int, ranks)
	type frac struct{ rank, rem int }
	fracs := make([]frac, ranks)
	assigned := 0
	for r, v := range p.P {
		counts[r] = length * v / total
		fracs[r] = frac{rank: r, rem: length*v - counts[r]*total}
		assigned += counts[r]
	}
	// Stable greedy: hand leftovers to largest remainders, ties to lower rank.
	for assigned < length {
		best := -1
		for i := range fracs {
			if fracs[i].rem == 0 && p.P[fracs[i].rank] == 0 {
				continue
			}
			if best == -1 || fracs[i].rem > fracs[best].rem {
				best = i
			}
		}
		counts[fracs[best].rank]++
		fracs[best].rem = -1 // consumed
		assigned++
	}
	ivs := make([][]Interval, ranks)
	off := 0
	for r, n := range counts {
		if n > 0 {
			ivs[r] = []Interval{{Start: off, Len: n}}
		}
		off += n
	}
	return Layout{Length: length, Ranks: ranks, Intervals: ivs}, nil
}

func (p Proportions) String() string {
	s := "proportions("
	for i, v := range p.P {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(v)
	}
	return s + ")"
}

func (p Proportions) kind() specKind { return kindProportions }

func (p Proportions) encodeBody(e *cdr.Encoder) {
	vals := make([]int32, len(p.P))
	for i, v := range p.P {
		vals[i] = int32(v)
	}
	e.WriteLongs(vals)
}

// Cyclic is a block-cyclic distribution: blocks of BlockSize elements are
// dealt to ranks round-robin. BlockSize 1 is the classic cyclic layout.
type Cyclic struct {
	BlockSize int
}

// Layout implements Spec.
func (c Cyclic) Layout(length, ranks int) (Layout, error) {
	if length < 0 || ranks < 1 {
		return Layout{}, fmt.Errorf("%w: length %d ranks %d", ErrNegative, length, ranks)
	}
	if c.BlockSize < 1 {
		return Layout{}, fmt.Errorf("%w: cyclic block size %d", ErrBadSpec, c.BlockSize)
	}
	ivs := make([][]Interval, ranks)
	for off, b := 0, 0; off < length; off, b = off+c.BlockSize, b+1 {
		r := b % ranks
		n := c.BlockSize
		if off+n > length {
			n = length - off
		}
		// Merge with the previous interval when contiguous (ranks == 1).
		if k := len(ivs[r]); k > 0 && ivs[r][k-1].End() == off {
			ivs[r][k-1].Len += n
		} else {
			ivs[r] = append(ivs[r], Interval{Start: off, Len: n})
		}
	}
	return Layout{Length: length, Ranks: ranks, Intervals: ivs}, nil
}

func (c Cyclic) String() string            { return fmt.Sprintf("cyclic(%d)", c.BlockSize) }
func (c Cyclic) kind() specKind            { return kindCyclic }
func (c Cyclic) encodeBody(e *cdr.Encoder) { e.WriteLong(int32(c.BlockSize)) }

// EncodeSpec writes a spec with its discriminant so it can travel inside a
// PARDIS request header.
func EncodeSpec(e *cdr.Encoder, s Spec) {
	e.WriteEnum(uint32(s.kind()))
	s.encodeBody(e)
}

// DecodeSpec reads a spec written by EncodeSpec.
func DecodeSpec(d *cdr.Decoder) (Spec, error) {
	k, err := d.ReadEnum()
	if err != nil {
		return nil, err
	}
	switch specKind(k) {
	case kindBlock:
		return Block{}, nil
	case kindProportions:
		vals, err := d.ReadLongs()
		if err != nil {
			return nil, err
		}
		p := Proportions{P: make([]int, len(vals))}
		for i, v := range vals {
			p.P[i] = int(v)
		}
		return p, nil
	case kindCyclic:
		v, err := d.ReadLong()
		if err != nil {
			return nil, err
		}
		return Cyclic{BlockSize: int(v)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown spec kind %d", ErrBadSpec, k)
	}
}
