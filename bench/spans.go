package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the harness timed at a layer boundary. Spans of one
// invocation share Trace (the invocation's index in the traced loop); a
// ladder rung is its own trace. Times are nanoseconds since the recorder's
// epoch, on the one monotonic clock client and server ranks share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"` // calls the span covers, when more than one
	Self   int64  `json:"self_ns"`
}

// recorder keeps the harness's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores s under a fresh id and returns the id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// selfTimes sets every span's Self to its duration minus the part of that
// interval its child spans cover; overlapping children count once and a
// child is clipped to its parent.
func selfTimes(spans []span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// write computes self times and dumps the spans as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
