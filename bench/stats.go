package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between the two nearest order statistics, so the
// median of an even sample is the mean of its middle pair. An empty sample
// reads 0.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// summary is how a metric is reported over the runs of one workload: the
// median is the value, min and max show the spread behind it, and Samples
// is how many observations each run's number was reduced from.
type summary struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples"`
	Runs    []float64 `json:"runs,omitempty"` // the runs' values, in the order they were made
}

func summarize(perRun []float64, unit string, samples int) summary {
	s := sorted(perRun)
	return summary{Value: quantile(s, 0.5), Min: quantile(s, 0), Max: quantile(s, 1), Unit: unit, Samples: samples, Runs: perRun}
}
