package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// maxSpans bounds the recorder's memory; spans past it are counted, not
// kept.
const maxSpans = 1 << 20

// span is one timed call from the benchmark into the program.
type span struct {
	name   string
	start  time.Duration // since the recorder was made
	dur    time.Duration
	parent int32 // index of the enclosing span, -1 at top level
}

// recorder keeps spans in memory and writes them out when the run ends.
// A nil *recorder records nothing, so untraced runs pay only the clock
// reads the metrics need anyway.
type recorder struct {
	t0      time.Time
	spans   []span
	stack   []int32
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span starting at start and returns its id (-1 when not
// recorded). Spans nest: a span begun while another is open is its child.
func (rec *recorder) begin(name string, start time.Time) int32 {
	if rec == nil {
		return -1
	}
	if len(rec.spans) >= maxSpans {
		rec.dropped++
		rec.stack = append(rec.stack, -1)
		return -1
	}
	parent := int32(-1)
	if n := len(rec.stack); n > 0 {
		parent = rec.stack[n-1]
	}
	id := int32(len(rec.spans))
	rec.spans = append(rec.spans, span{name: name, start: start.Sub(rec.t0), parent: parent})
	rec.stack = append(rec.stack, id)
	return id
}

// end closes the innermost open span with its duration.
func (rec *recorder) end(id int32, d time.Duration) {
	if rec == nil {
		return
	}
	rec.stack = rec.stack[:len(rec.stack)-1]
	if id >= 0 {
		rec.spans[id].dur = d
	}
}

// nextID returns the id the next begun span will get (-1 when not
// recording), so a caller can attach children to it afterwards.
func (rec *recorder) nextID() int32 {
	if rec == nil || len(rec.spans) >= maxSpans {
		return -1
	}
	return int32(len(rec.spans))
}

// addChild records a finished span measured elsewhere — in the server's
// request goroutine — as a child of parent.
func (rec *recorder) addChild(parent int32, name string, start time.Time, d time.Duration) {
	if rec == nil || parent < 0 || len(rec.spans) >= maxSpans {
		return
	}
	rec.spans = append(rec.spans, span{name: name, start: start.Sub(rec.t0), dur: d, parent: parent})
}

// selfMS returns each span name's self time in ms: the span's duration
// minus the part its child spans cover, summed over spans of that name.
func (rec *recorder) selfMS() map[string]float64 {
	self := make([]time.Duration, len(rec.spans))
	for i, s := range rec.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	out := map[string]float64{}
	for i, s := range rec.spans {
		out[s.name] += ms(self[i])
	}
	return out
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeFile writes the spans as a Chrome trace (loadable in
// chrome://tracing or Perfetto) together with the per-layer metrics, the
// span self times and the CPU profile folded by layer and package.
func (rec *recorder) writeFile(path string, layers map[string]metric, cpu, cpuPkg map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	events := make([]traceEvent, len(rec.spans))
	for i, s := range rec.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.dur) / 1e3,
			Args: map[string]int{"id": i, "parent": int(s.parent)},
		}
	}
	doc := struct {
		Metrics      map[string]metric  `json:"metrics"`
		CPUByLayer   map[string]float64 `json:"cpu_s_by_layer"`
		CPUByPackage map[string]float64 `json:"cpu_s_by_package"`
		SpanSelfMS   map[string]float64 `json:"span_self_ms"`
		DroppedSpans int                `json:"dropped_spans"`
		TraceEvents  []traceEvent       `json:"traceEvents"`
	}{layers, cpu, cpuPkg, rec.selfMS(), rec.dropped, events}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
