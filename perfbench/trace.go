package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Trace; Parent names the span that caused this one (0 for a root). Start and
// End are nanoseconds since the recorder's base time.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; spans past it are counted and
// dropped so a long traced run cannot grow without limit.
const maxSpans = 1 << 18

// recorder keeps spans in memory for the traced run; they are written out
// once the run ends, so tracing adds no IO to the measured interval.
type recorder struct {
	base    time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

// span records [start, end) under name and returns its id. trace 0 starts a
// new trace rooted at this span.
func (r *recorder) span(trace, parent uint64, name string, start, end time.Time) uint64 {
	id := r.newID()
	if trace == 0 {
		trace = id
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base))})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return id
}

// writeJSONL writes every recorded span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
