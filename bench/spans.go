package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced pass, recorded from outside
// the program under test, around a call into one of its layers.
type span struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
	// Parent is the span that caused this one; 0 for a root.
	Parent int `json:"parent"`
	// Round is shared by all spans of one traced round; a run traces
	// one.
	Round int `json:"round"`
	// Start and End are nanoseconds since the log was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// spanLog keeps spans in memory until the run ends. Clients record
// request spans concurrently.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans) + 1, Parent: parent, Round: 1, Start: now})
	return len(l.spans)
}

// end closes span id and returns its duration in seconds.
func (l *spanLog) end(id int) float64 {
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
	return float64(now-l.spans[id-1].Start) / 1e9
}

// in records f as a span under parent and returns its duration in
// seconds.
func (l *spanLog) in(name string, parent int, f func(id int)) float64 {
	id := l.begin(name, parent)
	f(id)
	return l.end(id)
}

// selfSeconds returns each span's duration minus the part of that
// interval its child spans cover (children of concurrent clients
// overlap, so the cover is the union), keyed by span id.
func (l *spanLog) selfSeconds() map[int]float64 {
	children := make(map[int][]span)
	for _, s := range l.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(l.spans))
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			if k.End > edge {
				covered += k.End - max(k.Start, edge)
				edge = k.End
			}
		}
		self[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// write stores the spans, with their self times, as one JSON document.
func (l *spanLog) write(path string) error {
	type out struct {
		span
		SelfSeconds float64 `json:"self_s"`
	}
	self := l.selfSeconds()
	doc := make([]out, len(l.spans))
	for i, s := range l.spans {
		doc[i] = out{span: s, SelfSeconds: self[s.ID]}
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
