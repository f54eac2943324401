package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ledger keeps the spans of one traced run in memory. A span is a named
// interval with a parent and a group (the benchmark whose stream it
// served). Calls too short to time one by one without distorting them
// are coalesced per decoded chunk: such a span runs from its first
// call's start to its last call's end, and busy holds only the summed
// duration of the calls. For every other span busy is end - start.
type ledger struct {
	epoch  time.Time
	spans  []span
	names  []string
	index  map[string]int32
	groups []string
}

type span struct {
	name, group, parent int32 // group and parent are -1 when absent
	calls               int32
	start, end, busy    time.Duration
}

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), index: map[string]int32{}}
}

// now reads the ledger clock: the time since the ledger was made.
func (l *ledger) now() time.Duration { return time.Since(l.epoch) }

// name interns a span name.
func (l *ledger) name(s string) int32 {
	if i, ok := l.index[s]; ok {
		return i
	}
	i := int32(len(l.names))
	l.names = append(l.names, s)
	l.index[s] = i
	return i
}

// group interns a group id.
func (l *ledger) group(s string) int32 {
	l.groups = append(l.groups, s)
	return int32(len(l.groups) - 1)
}

// open starts a contiguous span and returns its id.
func (l *ledger) open(name string, group, parent int32) int32 {
	l.spans = append(l.spans, span{name: l.name(name), group: group, parent: parent, calls: 1, start: l.now()})
	return int32(len(l.spans) - 1)
}

// close ends a span opened by open.
func (l *ledger) close(id int32) {
	s := &l.spans[id]
	s.end = l.now()
	s.busy = s.end - s.start
}

// acc accumulates the calls of one coalesced span within a chunk.
type acc struct {
	name             int32
	calls            int32
	first, last, sum time.Duration
}

func (a *acc) add(from, to time.Duration) {
	if a.calls == 0 {
		a.first = from
	}
	a.last = to
	a.sum += to - from
	a.calls++
}

// flushChunk records one chunk span over [start, end] and, under it,
// every accumulator that saw a call, then resets the accumulators.
func (l *ledger) flushChunk(group, parent int32, start, end time.Duration, accs []acc) {
	chunk := int32(len(l.spans))
	l.spans = append(l.spans, span{name: l.name("chunk"), group: group, parent: parent, calls: 1, start: start, end: end, busy: end - start})
	for i := range accs {
		a := &accs[i]
		if a.calls == 0 {
			continue
		}
		l.spans = append(l.spans, span{name: a.name, group: group, parent: chunk, calls: a.calls, start: a.first, end: a.last, busy: a.sum})
		a.calls, a.sum = 0, 0
	}
}

// selfTimes returns each span name's total self time: busy less the
// busy time of its children. Spans that have no children are the
// layers; the self time of container spans (run, group, chunk) is
// the tracer's own overhead, which the layers did not account for.
func (l *ledger) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.busy
		if s.parent >= 0 {
			self[s.parent] -= s.busy
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		out[l.names[s.name]] += self[i]
	}
	return out
}

// busy returns the summed busy time of every span with the name.
func (l *ledger) busy(name string) time.Duration {
	id, ok := l.index[name]
	if !ok {
		return 0
	}
	var d time.Duration
	for _, s := range l.spans {
		if s.name == id {
			d += s.busy
		}
	}
	return d
}

// spanLine is one span as written to the span file.
type spanLine struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Group  string `json:"group"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int32  `json:"calls"`
}

// write stores the spans as gzipped JSON lines, one span per line with
// its id, in order.
func (l *ledger) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for i, s := range l.spans {
		group := ""
		if s.group >= 0 {
			group = l.groups[s.group]
		}
		line := spanLine{i, l.names[s.name], group, s.parent, int64(s.start), int64(s.end), int64(s.busy), s.calls}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("compressing spans: %w", err)
	}
	return nil
}
