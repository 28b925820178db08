package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the benchmark wraps each call it makes into harness, core,
// workload and delta and notes when it started and ended.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; write dumps them once the run is over.
// Every span of one traced iteration shares the tracer's run id.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its id; parent 0 means a root span.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: t.now()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) { t.spans[id-1].end = t.now() }

// add records a span whose start and end the caller already took.
func (t *tracer) add(name string, parent int, start, end time.Duration) {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: start, end: end})
}

// durations returns the durations of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTime is span id's duration minus the time its direct children
// cover. Children of one parent never overlap here (the program is
// single-threaded below the populate fan), so their durations add.
func (t *tracer) selfTime(id int) time.Duration {
	s := t.spans[id-1]
	self := s.end - s.start
	for _, c := range t.spans[id:] {
		if c.parent == id {
			self -= c.end - c.start
		}
	}
	return self
}

// write dumps the spans as JSON lines into dir/<run>.jsonl and returns
// the path.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Run     string `json:"run"`
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{t.run, s.id, s.parent, s.name, int64(s.start), int64(s.end)}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// meanAndP99 returns the mean and the 99th percentile (nearest rank) of
// ds, in microseconds.
func meanAndP99(ds []time.Duration) (mean, p99 float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	rank := (99*len(sorted) + 99) / 100
	return us(sum) / float64(len(sorted)), us(sorted[rank-1])
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
