package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// operation share Op; Parent is the index (within the operation) of the
// span that caused this one, -1 for the operation's root span. Times
// are nanoseconds since the start of the measurement window.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects the spans of one traced operation. A nil tracer
// records nothing, so untraced operations pay one nil check per call
// site and no clock reads beyond the latency pair.
type tracer struct {
	epoch time.Time
	op    int64
	spans []span
}

// begin opens a span under parent (-1 for the root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Op: t.op, ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (concurrent calls), so their intervals are merged before
// being subtracted; a child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// durationsByName sums, for one operation, the durations of its spans
// under each name (an operation may call a layer more than once).
func durationsByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// writeSpans writes the spans kept in memory during the run, one JSON
// object per line.
func writeSpans(path string, ops [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, spans := range ops {
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
