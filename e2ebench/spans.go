package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer. Parent 0 is the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced runs pay one nil check per
// span. It is used from the driver goroutine only.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil log).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: start.Sub(l.t0).Microseconds(), EndUS: end.Sub(l.t0).Microseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(name string, parent int) int {
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndUS = time.Since(l.t0).Microseconds()
}

// write stores the spans as a JSON array at path.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
