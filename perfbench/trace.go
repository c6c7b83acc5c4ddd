package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer keeps spans in memory during a traced pass and writes them out
// when the run ends. Spans are recorded by the benchmark's own code
// around each call into a layer's public functions; a nil *tracer records
// nothing, so untraced passes pay one nil check per boundary.
type tracer struct {
	t0      time.Time
	names   []string
	ids     map[string]uint16
	spans   []span
	dropped int
}

// span is one timed call. parent indexes spans (-1 = root); id is the
// arrival, tenant or sample the call served.
type span struct {
	start, end time.Duration
	id         int64
	parent     int32
	name       uint16
}

// maxSpans bounds the trace's memory (~32 bytes a span); spans past it
// are counted as dropped, and the layer aggregates that read them say
// how many they saw.
const maxSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]uint16{}, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle (-1 when t is nil or full).
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	n, ok := t.ids[name]
	if !ok {
		n = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = n
	}
	t.spans = append(t.spans, span{start: time.Since(t.t0), id: id, parent: parent, name: n})
	return int32(len(t.spans) - 1)
}

// end closes the span h.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = time.Since(t.t0)
}

// durations returns the duration of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	n, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == n && s.end > 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. Children of one
// parent never overlap here (each pass calls layers from one goroutine).
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.end > 0 {
			out[t.names[s.name]] += s.end - s.start - child[i]
		}
	}
	return out
}

// summary returns one line per span name: count, total and self time.
func (t *tracer) summary() []string {
	self := t.selfTimes()
	var out []string
	for _, name := range t.names {
		ds := t.durations(name)
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		out = append(out, fmt.Sprintf("  %-28s %9d spans  total %12s  self %12s", name, len(ds), sum, self[name]))
	}
	sort.Strings(out)
	return out
}

// write stores the spans as tab-separated lines (index, name, start ns,
// end ns, parent, id) under dir and returns the file's path.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, base+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(bw, "span\tname\tstart_ns\tend_ns\tparent\tid")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, t.names[s.name], s.start, s.end, s.parent, s.id)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
