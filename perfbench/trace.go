package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer of the system, recorded by the
// benchmark around the public function it calls.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Parent int // index of the enclosing span, -1 for a root
	Round  int // round id; -1 for set-up
}

// tracer keeps spans in memory for one run. The benchmark client is a
// single goroutine, so the open-span stack needs no lock. A nil *tracer
// records nothing, which is how untraced rounds call the same helpers.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	round  int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), round: -1} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, Round: t.round})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the time its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// perRound sums, for every round in rounds, the time spent in spans named
// name, and returns one value per round in that order. A round without
// such a span contributes zero.
func (t *tracer) perRound(name string, rounds []int) []time.Duration {
	idx := make(map[int]int, len(rounds))
	for i, r := range rounds {
		idx[r] = i
	}
	out := make([]time.Duration, len(rounds))
	for _, s := range t.spans {
		if j, ok := idx[s.Round]; ok && s.Name == name {
			out[j] += s.End - s.Start
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	self := t.selfTimes()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.Parent, "round": s.Round,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
