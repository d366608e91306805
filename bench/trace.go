package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// request number; parent is the span that caused this one (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"` // "<layer>.<operation>"
	Request int    `json:"request"`
	Phase   string `json:"phase"` // "composite", "decomposed", "leaf", ...
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// layer is the module a span belongs to: the part of its name before the dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. The replay is single
// threaded, so the open spans form a stack and a new span's parent is the
// top of it. A nil recorder records nothing: the untraced replay that
// measures the recorder's own overhead runs the same code with nil.
type recorder struct {
	t0      time.Time
	spans   []span
	open    []int
	request int
	phase   string
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), request: -1} }

// scope sets the request number and phase stamped on the spans that follow.
func (r *recorder) scope(request int, phase string) {
	if r != nil {
		r.request, r.phase = request, phase
	}
}

// begin opens a span and returns its id for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Request: r.request, Phase: r.phase})
	r.open = append(r.open, id)
	r.spans[id].StartNS = int64(time.Since(r.t0))
	return id
}

// end closes the span begin returned and reports how long it was open.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	r.spans[id].EndNS = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].dur()
}

// rename relabels a span once its outcome is known (cache hit or miss).
func (r *recorder) rename(id int, name string) {
	if r != nil {
		r.spans[id].Name = name
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (they do
// not in the single-threaded replay, but the definition does not depend on
// it): the covered part is the union of their intervals clipped to the
// parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// requestSelf is one request's self time per layer, in milliseconds.
type requestSelf struct {
	Request int                `json:"request"`
	Phase   string             `json:"phase"`
	TotalMS float64            `json:"total_ms"`
	Layers  map[string]float64 `json:"self_ms_by_layer"`
}

// selfByRequest groups self times by (request, phase) and layer, over the
// spans whose phase ends in kind ("decomposed" also takes cold_start's
// "life0/decomposed").
func selfByRequest(spans []span, kind string) []requestSelf {
	self := selfTimes(spans)
	type key struct {
		req   int
		phase string
	}
	idx := map[key]int{}
	var out []requestSelf
	for i, s := range spans {
		if !strings.HasSuffix(s.Phase, kind) || s.Request < 0 {
			continue
		}
		k := key{s.Request, s.Phase}
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, requestSelf{Request: s.Request, Phase: s.Phase, Layers: map[string]float64{}})
		}
		out[j].Layers[s.layer()] += ms(self[i])
		out[j].TotalMS += ms(self[i])
	}
	return out
}

// selfShare sums per-request self times into each layer's share of the total.
func selfShare(reqs []requestSelf) map[string]float64 {
	sum, total := map[string]float64{}, 0.0
	for _, r := range reqs {
		for l, ms := range r.Layers {
			sum[l] += ms
			total += ms
		}
	}
	for l := range sum {
		sum[l] = ratio(sum[l], total)
	}
	return sum
}

// durations returns the lengths of the spans with the given name whose
// phase ends in kind.
func durations(spans []span, name, kind string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name && strings.HasSuffix(s.Phase, kind) {
			out = append(out, s.dur())
		}
	}
	return out
}

// stageTimes returns, for every span named parent whose phase ends in kind,
// in trace order, the time spent in stage calls beneath it: the spans of its
// subtree that have no child of their own.
func stageTimes(spans []span, kind, parent string) []time.Duration {
	hasChild := make(map[int]bool)
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	sums := map[int]time.Duration{}
	var order []int
	for _, s := range spans {
		if !strings.HasSuffix(s.Phase, kind) {
			continue
		}
		if s.Name == parent {
			order = append(order, s.ID)
		}
		if hasChild[s.ID] {
			continue
		}
		for up := s.Parent; up >= 0; up = spans[up].Parent {
			if spans[up].Name == parent {
				sums[up] += s.dur()
				break
			}
		}
	}
	out := make([]time.Duration, len(order))
	for i, id := range order {
		out[i] = sums[id]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
