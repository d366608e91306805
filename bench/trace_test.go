package main

import (
	"testing"
	"time"
)

// A hand-built tree:
//
//	request            [0,100)
//	  chatls.customize [10,60)
//	    llm.generate   [20,30)
//	    synthrag.embed [25,50)   overlaps llm.generate by 5
//	  synth.run        [60,130)  runs past its parent: clipped at 100
func handBuilt() []span {
	return []span{
		{ID: 0, Parent: -1, Name: "request", Request: 0, Phase: "decomposed", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "chatls.customize", Request: 0, Phase: "decomposed", StartNS: 10, EndNS: 60},
		{ID: 2, Parent: 1, Name: "llm.generate", Request: 0, Phase: "decomposed", StartNS: 20, EndNS: 30},
		{ID: 3, Parent: 1, Name: "synthrag.embed", Request: 0, Phase: "decomposed", StartNS: 25, EndNS: 50},
		{ID: 4, Parent: 0, Name: "synth.run", Request: 0, Phase: "decomposed", StartNS: 60, EndNS: 130},
	}
}

func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	self := selfTimes(handBuilt())
	want := []time.Duration{
		100 - (50 + 40), // request: customize covers [10,60), synth.run [60,100)
		50 - 30,         // customize: children cover the union [20,50)
		10, 25, 70,      // leaves keep their whole duration
	}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d self %v, want %v", i, self[i], w)
		}
	}
}

func TestSelfByRequestGroupsByLayer(t *testing.T) {
	reqs := selfByRequest(handBuilt(), "decomposed")
	if len(reqs) != 1 {
		t.Fatalf("%d requests, want 1", len(reqs))
	}
	got := reqs[0].Layers
	for layer, ns := range map[string]float64{"request": 10, "chatls": 20, "llm": 10, "synthrag": 25, "synth": 70} {
		if !near(got[layer], ns/1e6) {
			t.Errorf("layer %s self %v ms, want %v", layer, got[layer], ns/1e6)
		}
	}
	share := selfShare(reqs)
	if !near(share["synth"], 70.0/135) {
		t.Errorf("synth share %v, want 70/135", share["synth"])
	}
	if len(selfByRequest(handBuilt(), "composite")) != 0 {
		t.Error("phase filter let another phase through")
	}
}

func TestStageTimesSumLeavesUnderParent(t *testing.T) {
	spans := handBuilt()
	if got := stageTimes(spans, "decomposed", "request"); len(got) != 1 || got[0] != 10+25+70 {
		t.Errorf("stages under request = %v, want [105]", got)
	}
	if got := stageTimes(spans, "decomposed", "chatls.customize"); len(got) != 1 || got[0] != 35 {
		t.Errorf("stages under customize = %v, want [35]", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	r.scope(1, "x")
	id := r.begin("a.b")
	r.rename(id, "a.c")
	if r.end(id) != 0 {
		t.Error("nil recorder reported a duration")
	}
	rec := newRecorder()
	outer := rec.begin("request")
	inner := rec.begin("synth.run")
	rec.end(inner)
	rec.end(outer)
	if rec.spans[inner].Parent != outer || rec.spans[outer].Parent != -1 {
		t.Errorf("parents %d %d, want %d -1", rec.spans[inner].Parent, rec.spans[outer].Parent, outer)
	}
}
