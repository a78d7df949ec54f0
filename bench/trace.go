package main

import (
	"encoding/json"
	"os"
	"time"
)

// The benchmark's own span recorder. The traced run calls each layer's
// public function directly and brackets the call with a span; nothing in
// the program under test is instrumented (that is a later issue). Spans are
// held in memory and written once, at the end of the replay.

// span is one timed call: a name, the operation it belongs to, the span
// that caused it (-1 for an operation's root), and its interval on the
// recorder's clock.
type span struct {
	name       string
	op, parent int
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder is single-goroutine by construction: the replay is serial.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *recorder) finish(id int) { r.spans[id].end = time.Since(r.t0) }

// in brackets fn with a span.
func (r *recorder) in(name string, op, parent int, fn func()) {
	id := r.begin(name, op, parent)
	fn()
	r.finish(id)
}

// selfTimes returns each span's duration minus the part its children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// opSums adds up, per operation, the durations (in ms) of the spans with
// the given name. An operation that calls a layer several times (four
// verifies in one whatif-edit session) is charged their sum.
func (r *recorder) opSums(name string) map[int]float64 {
	byOp := map[int]float64{}
	for _, s := range r.spans {
		if s.name == name {
			byOp[s.op] += ms(s.dur())
		}
	}
	return byOp
}

// unattributedShare is the replay's accounting check: over every span
// named root, the share of its time that no child span covers.
func (r *recorder) unattributedShare(root string) float64 {
	self := r.selfTimes()
	var total, loose time.Duration
	for i, s := range r.spans {
		if s.name == root {
			total += s.dur()
			loose += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(loose) / float64(total)
}

// writeChrome writes the spans as Chrome trace-event JSON (Perfetto,
// chrome://tracing), in the envelope hack/tracecheck validates.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
